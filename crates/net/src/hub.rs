//! The in-process transport: one endpoint per provider over crossbeam
//! channels.
//!
//! Topology is a full mesh, as in the paper's deployment: every provider
//! can message every other provider directly, and a send never blocks,
//! mirroring asynchronous sends in the ØMQ prototype. The hub adds no
//! delay of its own; a run that wants community-network link latency
//! wraps its endpoints in a [`ChaosTransport`](crate::ChaosTransport)
//! executing [`FaultPlan::community_net`](crate::FaultPlan::community_net),
//! which works the same over either transport.

use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use dauctioneer_types::ProviderId;

use crate::latency::LatencyModel;
use crate::metrics::TrafficMetrics;

/// Error returned by [`Endpoint::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders are gone; no message can ever arrive.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "all peers disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// One provider's handle onto the mesh.
#[derive(Debug)]
pub struct Endpoint {
    me: ProviderId,
    m: usize,
    /// Channels into each peer's inbox.
    direct: Vec<Sender<(ProviderId, Bytes)>>,
    inbox: Receiver<(ProviderId, Bytes)>,
    metrics: TrafficMetrics,
}

impl Endpoint {
    /// This endpoint's provider id.
    pub fn me(&self) -> ProviderId {
        self.me
    }

    /// Number of providers in the mesh.
    pub fn num_providers(&self) -> usize {
        self.m
    }

    /// All provider ids except this endpoint's own.
    pub fn peers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        ProviderId::all(self.m).filter(move |p| *p != self.me)
    }

    /// Send `payload` to `to`. Never blocks; messages to departed peers
    /// cannot be delivered — they are **counted** as drops in the hub's
    /// [`TrafficMetrics`] (never silently discarded), so late-session
    /// and chaos-induced loss is observable in every
    /// [`crate::TrafficSnapshot`].
    pub fn send(&self, to: ProviderId, payload: Bytes) {
        self.metrics.record_send(self.me, payload.len());
        match self.direct.get(to.index()) {
            Some(ch) => {
                let len = payload.len();
                if ch.send((self.me, payload)).is_err() {
                    self.metrics.record_drop(self.me, len);
                }
            }
            None => self.metrics.record_drop(self.me, payload.len()),
        }
    }

    /// Send `payload` to every other provider.
    pub fn broadcast(&self, payload: &Bytes) {
        for peer in ProviderId::all(self.m) {
            if peer != self.me {
                self.send(peer, payload.clone());
            }
        }
    }

    /// Receive the next message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived in time,
    /// [`RecvError::Disconnected`] if every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(ProviderId, Bytes), RecvError> {
        match self.inbox.recv_timeout(timeout) {
            Ok((from, payload)) => {
                self.metrics.record_recv(self.me, payload.len());
                Ok((from, payload))
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<(ProviderId, Bytes)> {
        self.inbox.try_recv().ok().inspect(|(_, payload)| {
            self.metrics.record_recv(self.me, payload.len());
        })
    }
}

/// A full mesh of `m` providers over crossbeam channels.
///
/// Construct, [`ThreadedHub::take_endpoints`], and hand one endpoint to
/// each provider thread. The endpoints own their channels, so the hub
/// may be dropped at any time; it stays useful only for its
/// [`ThreadedHub::metrics`].
#[derive(Debug)]
pub struct ThreadedHub {
    endpoints: Vec<Endpoint>,
    metrics: TrafficMetrics,
}

impl ThreadedHub {
    /// Build a mesh of `m` providers.
    ///
    /// `latency` and `seed` are kept for one release so existing callers
    /// compile: the hub models no latency of its own (delay a run with
    /// [`FaultPlan::community_net`](crate::FaultPlan::community_net)),
    /// and `seed` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is not [`LatencyModel::Zero`].
    pub fn new(m: usize, latency: LatencyModel, seed: u64) -> ThreadedHub {
        assert_eq!(latency, LatencyModel::Zero, "the hub delays nothing; use a chaos delay plan");
        let _ = seed;
        let metrics = TrafficMetrics::new(m);
        let (inboxes_tx, inboxes_rx): (Vec<_>, Vec<_>) = (0..m).map(|_| unbounded()).unzip();
        let endpoints = inboxes_rx
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| Endpoint {
                me: ProviderId(i as u32),
                m,
                direct: inboxes_tx.clone(),
                inbox,
                metrics: metrics.clone(),
            })
            .collect();
        ThreadedHub { endpoints, metrics }
    }

    /// Take ownership of the endpoints (one per provider, in id order).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_endpoints(&mut self) -> Vec<Endpoint> {
        assert!(!self.endpoints.is_empty(), "endpoints already taken");
        std::mem::take(&mut self.endpoints)
    }

    /// The hub's shared traffic counters.
    pub fn metrics(&self) -> TrafficMetrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_delivery_zero_latency() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(2), Bytes::from_static(b"m"));
        let (from, payload) = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, ProviderId(0));
        assert_eq!(&payload[..], b"m");
    }

    #[test]
    fn broadcast_reaches_all_peers_but_not_self() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        eps[1].broadcast(&Bytes::from_static(b"b"));
        assert!(eps[0].recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(eps[2].recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn recv_timeout_expires() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        let err = eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn peers_excludes_self() {
        let mut hub = ThreadedHub::new(3, LatencyModel::Zero, 1);
        let eps = hub.take_endpoints();
        let peers: Vec<_> = eps[1].peers().collect();
        assert_eq!(peers, vec![ProviderId(0), ProviderId(2)]);
        assert_eq!(eps[1].num_providers(), 3);
    }

    #[test]
    fn metrics_count_traffic() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let metrics = hub.metrics();
        let eps = hub.take_endpoints();
        eps[0].send(ProviderId(1), Bytes::from_static(b"12345"));
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.per_provider[0].sent_bytes, 5);
        assert_eq!(snap.per_provider[1].received_bytes, 5);
    }

    #[test]
    fn undeliverable_messages_are_counted_not_silent() {
        let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
        let metrics = hub.metrics();
        let mut eps = hub.take_endpoints();
        let survivor = eps.remove(0);
        drop(eps); // endpoint 1 departs; its inbox receiver is gone
        survivor.send(ProviderId(1), Bytes::from_static(b"ghost"));
        // Out-of-range destinations are undeliverable too.
        survivor.send(ProviderId(7), Bytes::from_static(b"void!"));
        let snap = metrics.snapshot();
        assert_eq!(snap.per_provider[0].dropped_messages, 2);
        assert_eq!(snap.per_provider[0].dropped_bytes, 10);
        assert_eq!(snap.total_dropped(), 2);
        // Sends are still counted as sends — the drop counter is additive
        // observability, not a reclassification.
        assert_eq!(snap.per_provider[0].sent_messages, 2);
    }

    #[test]
    #[should_panic(expected = "the hub delays nothing")]
    fn a_modelled_latency_is_refused() {
        ThreadedHub::new(2, LatencyModel::CommunityNet, 1);
    }

    #[test]
    fn threads_can_exchange_concurrently() {
        let mut hub = ThreadedHub::new(4, LatencyModel::Zero, 3);
        let eps = hub.take_endpoints();
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    ep.broadcast(&Bytes::from_static(b"ping"));
                    let mut got = 0;
                    while got < 3 {
                        if ep.recv_timeout(Duration::from_secs(5)).is_ok() {
                            got += 1;
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
    }
}
