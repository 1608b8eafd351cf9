//! Traffic accounting for the benchmark harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dauctioneer_types::ProviderId;

/// Atomic per-provider counters, shared by all endpoints of a hub.
#[derive(Debug, Default)]
pub struct ProviderTraffic {
    sent_messages: AtomicU64,
    sent_bytes: AtomicU64,
    received_messages: AtomicU64,
    received_bytes: AtomicU64,
    dropped_messages: AtomicU64,
    dropped_bytes: AtomicU64,
}

impl ProviderTraffic {
    fn record_send(&self, bytes: usize) {
        self.sent_messages.fetch_add(1, Ordering::Relaxed);
        self.sent_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn record_recv(&self, bytes: usize) {
        self.received_messages.fetch_add(1, Ordering::Relaxed);
        self.received_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn record_drop(&self, bytes: usize) {
        self.dropped_messages.fetch_add(1, Ordering::Relaxed);
        self.dropped_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Shared traffic metrics for one hub.
///
/// Cloning shares the same underlying counters.
///
/// # Example
///
/// ```
/// use dauctioneer_net::{ThreadedHub, LatencyModel};
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let mut hub = ThreadedHub::new(2, LatencyModel::Zero, 1);
/// let metrics = hub.metrics();
/// let mut eps = hub.take_endpoints();
/// let e1 = eps.remove(1);
/// let e0 = eps.remove(0);
/// e0.send(e1.me(), Bytes::from_static(b"xyz"));
/// e1.recv_timeout(Duration::from_secs(1)).unwrap();
/// let snap = metrics.snapshot();
/// assert_eq!(snap.total_messages(), 1);
/// assert_eq!(snap.total_bytes(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficMetrics {
    providers: Arc<Vec<ProviderTraffic>>,
    io_threads: Arc<AtomicU64>,
}

impl TrafficMetrics {
    /// Fresh counters for `m` providers.
    pub fn new(m: usize) -> TrafficMetrics {
        TrafficMetrics {
            providers: Arc::new((0..m).map(|_| ProviderTraffic::default()).collect()),
            io_threads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Set the number of OS threads this transport dedicates to I/O
    /// (the reactor thread of a socket mesh; the in-process hub has none
    /// and always reports 0). A gauge, not a counter: the transport stores its
    /// roster size once at spawn so the O(1)-I/O-threads property is a
    /// queryable runtime fact rather than a doc claim.
    pub fn set_io_threads(&self, n: u64) {
        self.io_threads.store(n, Ordering::Relaxed);
    }

    /// Current value of the I/O-thread gauge.
    pub fn io_threads(&self) -> u64 {
        self.io_threads.load(Ordering::Relaxed)
    }

    /// Record a send by `from` of `bytes` payload bytes.
    pub fn record_send(&self, from: ProviderId, bytes: usize) {
        if let Some(t) = self.providers.get(from.index()) {
            t.record_send(bytes);
        }
    }

    /// Record a receive by `to` of `bytes` payload bytes.
    pub fn record_recv(&self, to: ProviderId, bytes: usize) {
        if let Some(t) = self.providers.get(to.index()) {
            t.record_recv(bytes);
        }
    }

    /// Record a message from `from` that could not be delivered (the
    /// destination's inbox is gone or out of range). Undeliverable
    /// traffic is *counted*, never silently discarded — chaos-induced
    /// loss must be observable.
    pub fn record_drop(&self, from: ProviderId, bytes: usize) {
        if let Some(t) = self.providers.get(from.index()) {
            t.record_drop(bytes);
        }
    }

    /// Capture a consistent-enough snapshot (relaxed reads; exact once the
    /// run has quiesced).
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            io_threads: self.io_threads.load(Ordering::Relaxed),
            per_provider: self
                .providers
                .iter()
                .map(|t| ProviderSnapshot {
                    sent_messages: t.sent_messages.load(Ordering::Relaxed),
                    sent_bytes: t.sent_bytes.load(Ordering::Relaxed),
                    received_messages: t.received_messages.load(Ordering::Relaxed),
                    received_bytes: t.received_bytes.load(Ordering::Relaxed),
                    dropped_messages: t.dropped_messages.load(Ordering::Relaxed),
                    dropped_bytes: t.dropped_bytes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one provider's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProviderSnapshot {
    /// Messages sent.
    pub sent_messages: u64,
    /// Payload bytes sent.
    pub sent_bytes: u64,
    /// Messages received.
    pub received_messages: u64,
    /// Payload bytes received.
    pub received_bytes: u64,
    /// Messages this provider sent that could not be delivered (the
    /// destination inbox was gone or out of range).
    pub dropped_messages: u64,
    /// Payload bytes of those undeliverable messages.
    pub dropped_bytes: u64,
}

/// Point-in-time copy of a hub's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Counters by provider index.
    pub per_provider: Vec<ProviderSnapshot>,
    /// OS threads the transport dedicates to I/O (see
    /// [`TrafficMetrics::set_io_threads`]). Summed by [`merge`], so an
    /// aggregate over independent meshes reports the total roster.
    ///
    /// [`merge`]: TrafficSnapshot::merge
    pub io_threads: u64,
}

impl TrafficSnapshot {
    /// Add `other`'s counters into this snapshot, provider by provider
    /// (used to aggregate across the independent meshes of a sharded or
    /// multi-transport run).
    pub fn merge(&mut self, other: &TrafficSnapshot) {
        if self.per_provider.len() < other.per_provider.len() {
            self.per_provider.resize(other.per_provider.len(), ProviderSnapshot::default());
        }
        for (mine, theirs) in self.per_provider.iter_mut().zip(&other.per_provider) {
            mine.sent_messages += theirs.sent_messages;
            mine.sent_bytes += theirs.sent_bytes;
            mine.received_messages += theirs.received_messages;
            mine.received_bytes += theirs.received_bytes;
            mine.dropped_messages += theirs.dropped_messages;
            mine.dropped_bytes += theirs.dropped_bytes;
        }
        self.io_threads += other.io_threads;
    }

    /// Total messages sent across all providers.
    pub fn total_messages(&self) -> u64 {
        self.per_provider.iter().map(|p| p.sent_messages).sum()
    }

    /// Total payload bytes sent across all providers.
    pub fn total_bytes(&self) -> u64 {
        self.per_provider.iter().map(|p| p.sent_bytes).sum()
    }

    /// Total undeliverable messages across all providers.
    pub fn total_dropped(&self) -> u64 {
        self.per_provider.iter().map(|p| p.dropped_messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = TrafficMetrics::new(2);
        m.record_send(ProviderId(0), 10);
        m.record_send(ProviderId(0), 5);
        m.record_recv(ProviderId(1), 15);
        let snap = m.snapshot();
        assert_eq!(snap.per_provider[0].sent_messages, 2);
        assert_eq!(snap.per_provider[0].sent_bytes, 15);
        assert_eq!(snap.per_provider[1].received_messages, 1);
        assert_eq!(snap.per_provider[1].received_bytes, 15);
        assert_eq!(snap.total_messages(), 2);
        assert_eq!(snap.total_bytes(), 15);
    }

    #[test]
    fn drops_accumulate_and_merge() {
        let m = TrafficMetrics::new(2);
        m.record_drop(ProviderId(0), 7);
        m.record_drop(ProviderId(1), 3);
        let mut snap = m.snapshot();
        assert_eq!(snap.per_provider[0].dropped_messages, 1);
        assert_eq!(snap.per_provider[0].dropped_bytes, 7);
        assert_eq!(snap.total_dropped(), 2);
        let other = m.snapshot();
        snap.merge(&other);
        assert_eq!(snap.total_dropped(), 4);
        assert_eq!(snap.per_provider[1].dropped_bytes, 6);
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let m = TrafficMetrics::new(1);
        m.record_send(ProviderId(5), 10);
        assert_eq!(m.snapshot().total_messages(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let m = TrafficMetrics::new(1);
        let c = m.clone();
        m.record_send(ProviderId(0), 1);
        assert_eq!(c.snapshot().total_messages(), 1);
    }

    #[test]
    fn io_thread_gauge_stores_and_merges() {
        let a = TrafficMetrics::new(1);
        assert_eq!(a.io_threads(), 0);
        a.set_io_threads(1);
        a.set_io_threads(1); // gauge: stores, never accumulates
        assert_eq!(a.io_threads(), 1);
        assert_eq!(a.clone().snapshot().io_threads, 1);
        let b = TrafficMetrics::new(1);
        b.set_io_threads(2);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.io_threads, 3);
    }
}
