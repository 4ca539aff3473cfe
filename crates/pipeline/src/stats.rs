//! Simulation statistics.

use obs::JsonValue;
use predictors::PredictorStats;

/// End-of-run statistics of one simulation.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Cycles simulated (measurement phase).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Value-producing instructions retired.
    pub value_producing: u64,
    /// Loads retired.
    pub loads: u64,
    /// D-cache miss rate over the measurement phase.
    pub dcache_miss_rate: f64,
    /// I-cache miss rate.
    pub icache_miss_rate: f64,
    /// Branch misprediction rate.
    pub branch_mispredict_rate: f64,
    /// Value-prediction accuracy/coverage (all value producers).
    pub vp: PredictorStats,
    /// Value-prediction statistics restricted to loads that missed the
    /// D-cache (the §7 "missing loads" analysis).
    pub vp_missing_loads: PredictorStats,
    /// Value-delay histogram (Figure 12): for each value-producing
    /// instruction, the number of values produced (written back) between
    /// its dispatch and its own write-back. Larger delays clamp into the
    /// top bucket.
    pub delays: obs::Histogram,
    /// Instructions that were re-executed due to value misprediction.
    pub reissues: u64,
    /// Prefetches issued by the attached [`Prefetcher`](crate::Prefetcher).
    pub prefetches_issued: u64,
    /// Prefetches that a later demand miss found in flight or completed.
    pub prefetches_useful: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Every statistic — counters, rates, predictor stats, and the delay
    /// histogram with percentiles — as a JSON object for run reports.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("cycles", self.cycles)
            .with("retired", self.retired)
            .with("ipc", self.ipc())
            .with("value_producing", self.value_producing)
            .with("loads", self.loads)
            .with("dcache_miss_rate", self.dcache_miss_rate)
            .with("icache_miss_rate", self.icache_miss_rate)
            .with("branch_mispredict_rate", self.branch_mispredict_rate)
            .with("reissues", self.reissues)
            .with("prefetches_issued", self.prefetches_issued)
            .with("prefetches_useful", self.prefetches_useful)
            .with("vp", self.vp.to_json())
            .with("vp_missing_loads", self.vp_missing_loads.to_json())
            .with("delays", self.delays.to_json_with_buckets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_and_averages() {
        let mut h = obs::Histogram::new(4);
        h.record(0);
        h.record(2);
        h.record(100); // clamps into bucket 4
        assert_eq!(h.total(), 3);
        assert_eq!(h.fraction(2), 1.0 / 3.0);
        assert_eq!(h.fraction(4), 1.0 / 3.0);
        assert!((h.mean() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = obs::Histogram::new(4);
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_report_top_bucket_for_clamped_tail() {
        let mut h = obs::Histogram::new(8);
        for _ in 0..100 {
            h.record(500); // all observations clamp into bucket 8
        }
        assert_eq!(h.p50(), 8);
        assert_eq!(h.p99(), 8);
    }

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 100,
            retired: 150,
            value_producing: 90,
            loads: 30,
            dcache_miss_rate: 0.1,
            icache_miss_rate: 0.0,
            branch_mispredict_rate: 0.05,
            vp: PredictorStats::new(),
            vp_missing_loads: PredictorStats::new(),
            delays: obs::Histogram::new(8),
            reissues: 0,
            prefetches_issued: 0,
            prefetches_useful: 0,
        }
    }

    #[test]
    fn ipc_computes() {
        assert!((sample_stats().ipc() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stats_serialize_to_json() {
        let mut s = sample_stats();
        s.delays.record(3);
        let j = s.to_json();
        assert_eq!(j.path("cycles").and_then(|v| v.as_f64()), Some(100.0));
        assert_eq!(j.path("ipc").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(j.path("delays.p50").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(j.path("vp.total").and_then(|v| v.as_f64()), Some(0.0));
        // Round-trips through the parser.
        let parsed = JsonValue::parse(&j.to_json()).unwrap();
        assert_eq!(
            parsed.path("delays.total").and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
