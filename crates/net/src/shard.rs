//! Sharded in-process transport: N independent provider meshes, with
//! sessions partitioned across them by session tag.
//!
//! One [`ThreadedHub`] mesh means one provider thread per provider, no
//! matter how many concurrent sessions are multiplexed over it — on a
//! multi-core host that single thread per provider is the ceiling on
//! batch throughput. A [`ShardedHub`] stands up `N` *independent* meshes,
//! each with its own channels, and assigns every session to exactly one
//! of them by a stable hash of its [`SessionId`] ([`shard_for`]). Sessions never cross
//! shards, so no inter-shard coordination exists at all; the batch layer
//! simply runs one provider thread per provider *per shard*.
//!
//! Sharding preserves every session-level guarantee: a session's frames
//! all travel the one mesh its tag hashes to, and within a mesh the
//! channels stay reliable and FIFO per pair (§3.3's model assumption).

use dauctioneer_types::SessionId;

use crate::hub::{Endpoint, ThreadedHub};
use crate::latency::LatencyModel;

/// The shard a session's frames travel through, stable across processes
/// and runs: a Fibonacci hash of the session tag folded onto `shards`.
///
/// Adjacent session ids scatter across shards (batches are usually built
/// with consecutive tags), and every participant computes the same
/// mapping from the tag alone — no coordination or lookup table.
pub fn shard_for(session: SessionId, shards: usize) -> usize {
    debug_assert!(shards > 0, "a hub has at least one shard");
    (session.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards.max(1)
}

/// `N` independent [`ThreadedHub`] meshes of `m` providers each.
#[derive(Debug)]
pub struct ShardedHub {
    shards: Vec<ThreadedHub>,
}

impl ShardedHub {
    /// Build `shards` independent meshes of `m` providers.
    ///
    /// `latency` and `seed` are kept for one release, as in
    /// [`ThreadedHub::new`]: the hub models no latency and ignores `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `latency` is not
    /// [`LatencyModel::Zero`].
    pub fn new(m: usize, shards: usize, latency: LatencyModel, seed: u64) -> ShardedHub {
        assert!(shards > 0, "a hub has at least one shard");
        ShardedHub { shards: (0..shards).map(|_| ThreadedHub::new(m, latency, seed)).collect() }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `session` is assigned to.
    pub fn shard_for(&self, session: SessionId) -> usize {
        shard_for(session, self.shards.len())
    }

    /// Take ownership of every shard's endpoints: `result[s][j]` is
    /// provider `j`'s endpoint on shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_endpoints(&mut self) -> Vec<Vec<Endpoint>> {
        self.shards.iter_mut().map(|hub| hub.take_endpoints()).collect()
    }

    /// Shared handles onto each shard's traffic counters, one per shard.
    ///
    /// The handles stay valid after the hub's endpoints are taken (and
    /// after the hub itself moves elsewhere), so a long-lived service can
    /// keep observing traffic on a mesh whose ownership it has handed to
    /// its worker threads.
    pub fn shard_metrics(&self) -> Vec<crate::metrics::TrafficMetrics> {
        self.shards.iter().map(|hub| hub.metrics()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TrafficSnapshot;
    use bytes::Bytes;
    use dauctioneer_types::ProviderId;
    use std::time::Duration;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in 1..8 {
            for tag in 0..256 {
                let s = shard_for(SessionId(tag), shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(SessionId(tag), shards), "stable");
            }
        }
    }

    #[test]
    fn consecutive_tags_scatter() {
        let shards = 4;
        let hit: std::collections::HashSet<usize> =
            (0..16).map(|tag| shard_for(SessionId(tag), shards)).collect();
        assert!(hit.len() > 1, "16 consecutive tags all landed on one shard");
    }

    #[test]
    fn shards_are_independent_meshes() {
        let mut hub = ShardedHub::new(2, 2, LatencyModel::Zero, 1);
        assert_eq!(hub.num_shards(), 2);
        let shards = hub.take_endpoints();
        // A message on shard 0 arrives on shard 0 only.
        shards[0][0].send(ProviderId(1), Bytes::from_static(b"s0"));
        let (from, payload) = shards[0][1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, ProviderId(0));
        assert_eq!(&payload[..], b"s0");
        assert!(shards[1][1].try_recv().is_none());
    }

    #[test]
    fn traffic_sums_across_shards() {
        let mut hub = ShardedHub::new(2, 3, LatencyModel::Zero, 1);
        let shards = hub.take_endpoints();
        shards[0][0].send(ProviderId(1), Bytes::from_static(b"abc"));
        shards[2][0].send(ProviderId(1), Bytes::from_static(b"de"));
        let mut snap = TrafficSnapshot::default();
        for metrics in hub.shard_metrics() {
            snap.merge(&metrics.snapshot());
        }
        assert_eq!(snap.per_provider[0].sent_bytes, 5);
        assert_eq!(snap.total_messages(), 2);
    }
}
