//! Stable id→shard routing for sharded indexes.
//!
//! One HNSW per core is the serving layout (`tmn-serve`'s `ShardSet` wraps
//! each shard in a lock for concurrent mutation and owns the scatter-gather
//! merge); this module holds the pure piece underneath it — the
//! [`ShardRouter`], so an id always lands on the same shard no matter when
//! it arrives.

/// SplitMix64 finalizer: a well-mixed stable hash of an id.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Stable id→shard assignment. Pure function of `(id, shard count)`: the
/// same id routes to the same shard across processes, restarts and
/// insert/delete interleavings — the property the serving engine's
/// delete-then-reinsert path and the warm cache both rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards > 0, "ShardRouter: need at least one shard");
        ShardRouter { shards }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Which shard owns `id`.
    #[inline]
    pub fn shard_of(&self, id: u64) -> usize {
        (splitmix64(id) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_stable_and_total() {
        let r = ShardRouter::new(4);
        let mut seen = vec![0usize; 4];
        for id in 0..1000u64 {
            let s = r.shard_of(id);
            assert_eq!(s, r.shard_of(id), "routing must be deterministic");
            assert!(s < 4);
            seen[s] += 1;
        }
        // A decent hash spreads 1000 ids roughly evenly over 4 shards.
        assert!(seen.iter().all(|&c| c > 150), "router too imbalanced: {seen:?}");
    }
}
