//! Pipeline and cache configuration (the paper's Table 1).

/// The largest reorder buffer any [`PipelineConfig`] supports.
///
/// The simulator's scheduler keeps one bit per ROB slot in a `u64` (the
/// waiting set, each producer's wake set, each completion-wheel word), so
/// issue and completion visit set bits instead of walking lists. The
/// paper's Table 1 machine and every configuration in this repository use
/// 64 entries.
pub const MAX_ROB_ENTRIES: usize = 64;

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Extra cycles added by a miss.
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }
}

/// Full processor configuration.
///
/// [`PipelineConfig::r10k`] reproduces the paper's Table 1: a 4-way
/// superscalar with a 64-entry reorder buffer, 4 fully symmetric function
/// units, 64 KB 4-way I/D caches (12 / 14 cycle miss penalties), 2-cycle
/// D-cache hits, and MIPS R10000 execution latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions dispatched (renamed into the ROB) per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to function units per cycle.
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer (RUU) entries, at most [`MAX_ROB_ENTRIES`]
    /// ([`Simulator::new`](crate::Simulator::new) panics above it).
    pub rob_entries: usize,
    /// Cycles between fetch and dispatch (decode stages).
    pub front_end_depth: u64,
    /// Cycles from branch resolution to the first redirected fetch.
    pub redirect_penalty: u64,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// D-cache hit latency in cycles (Table 1: "Memory access: 2 cycles").
    pub dcache_hit_latency: u64,
}

impl PipelineConfig {
    /// The paper's Table 1 configuration.
    pub fn r10k() -> Self {
        PipelineConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            retire_width: 4,
            rob_entries: 64,
            front_end_depth: 2,
            redirect_penalty: 3,
            icache: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                miss_penalty: 12,
            },
            dcache: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                miss_penalty: 14,
            },
            dcache_hit_latency: 2,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::r10k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r10k_matches_table1() {
        let c = PipelineConfig::r10k();
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.icache.size_bytes, 64 * 1024);
        assert_eq!(c.icache.miss_penalty, 12);
        assert_eq!(c.dcache.miss_penalty, 14);
        assert_eq!(c.dcache_hit_latency, 2);
    }

    #[test]
    fn cache_sets_compute() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            miss_penalty: 14,
        };
        assert_eq!(c.sets(), 256);
    }
}
