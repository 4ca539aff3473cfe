//! Baseline value predictors and shared value-prediction infrastructure.
//!
//! This crate provides the *local-history* predictors that the gDiff study
//! of Zhou, Flanagan and Conte (ISCA 2003) compares against, plus the
//! building blocks every predictor in this workspace shares:
//!
//! * [`ValuePredictor`] — the common predict-at-dispatch / update-at-writeback
//!   interface,
//! * [`PcTable`] — a PC-indexed, optionally bounded (tagless, direct-mapped)
//!   prediction table with aliasing accounting (used to regenerate the
//!   paper's Figure 9),
//! * [`ConfidenceTable`] and [`GatedPredictor`] — the paper's 3-bit
//!   confidence mechanism (+2 on a correct prediction, −1 on an incorrect
//!   one, confident when ≥ 4),
//! * [`PredictorStats`] — accuracy / coverage accounting used by the
//!   experiment harness.
//!
//! # Predictors
//!
//! | Type | Locality exploited | Paper role |
//! |------|--------------------|------------|
//! | [`LastValuePredictor`] | local, last value | classic baseline \[18\] |
//! | [`LastNValuePredictor`] | local, any of last N values | \[4\] |
//! | [`StridePredictor`] | local computational (2-delta stride) | "local stride" baseline |
//! | [`FcmPredictor`] | local context (order-k FCM) | \[25, 30\] |
//! | [`DfcmPredictor`] | local context over strides (DFCM) | "local context" baseline \[9\] |
//! | [`MarkovPredictor`] | first-order address transition | §6 load-address baseline \[13\] |
//! | [`PiPredictor`] | order-1 *global* context | prior global scheme \[20\] |
//! | [`GlobalContextPredictor`] | order-k global context | DDISC family \[28\] |
//! | [`HybridPredictor`] | selector over two components | §1 hybrid background |
//!
//! The gDiff predictor itself — the paper's contribution — lives in the
//! [`gdiff`](https://docs.rs/gdiff) crate, which depends on this one for the
//! table/confidence plumbing and for the local-stride filler used by the
//! hybrid global value queue.
//!
//! # Example
//!
//! ```
//! use predictors::{StridePredictor, ValuePredictor, Capacity};
//!
//! let mut p = StridePredictor::new(Capacity::Unbounded);
//! for v in (0u64..8).map(|i| 100 + 3 * i) {
//!     p.update(0x400, v);
//! }
//! // The sequence 100, 103, 106, ... continues with stride 3.
//! assert_eq!(p.predict(0x400), Some(124));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod confidence;
mod dfcm;
mod fcm;
mod global_context;
mod hybrid;
mod last_value;
mod markov;
mod pi;
mod stats;
mod stride;
mod table;

pub use confidence::{ConfidenceConfig, ConfidenceTable, GatedPrediction, GatedPredictor};
pub use dfcm::DfcmPredictor;
pub use fcm::{FcmPredictor, MAX_CONTEXT};
pub use global_context::GlobalContextPredictor;
pub use hybrid::{HybridChoice, HybridPredictor};
pub use last_value::{LastNValuePredictor, LastValuePredictor};
pub use markov::{MarkovConfig, MarkovPredictor};
pub use pi::PiPredictor;
pub use stats::PredictorStats;
pub use stride::StridePredictor;
pub use table::{Capacity, PcTable, TableGeometry};

/// The common interface implemented by every value predictor in this
/// workspace.
///
/// The interface mirrors how a hardware value predictor is driven by an
/// out-of-order pipeline:
///
/// * [`predict`](Self::predict) is called at *dispatch* time, before the
///   instruction executes, and may return a speculative value;
/// * [`update`](Self::update) is called at *write-back* time with the value
///   the instruction actually produced.
///
/// Implementations are free to return `None` when they have no basis for a
/// prediction (cold entry, tag miss, …). Confidence gating is layered on
/// top by [`GatedPredictor`], not baked into the predictors themselves,
/// matching the paper's methodology where the same 3-bit counter scheme is
/// applied uniformly to every predictor.
pub trait ValuePredictor {
    /// Predicts the value the instruction at `pc` is about to produce.
    ///
    /// Returns `None` when the predictor has no candidate value for `pc`.
    fn predict(&mut self, pc: u64) -> Option<u64>;

    /// Trains the predictor with the value actually produced by `pc`.
    fn update(&mut self, pc: u64, actual: u64);

    /// A short, stable, human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Predicts `pc`, then trains on `actual`, and returns the prediction
    /// made before training.
    ///
    /// This is the §3 profile loop's only predictor call: every producer is
    /// predicted and trained at once, in program order (`run_profile_on`
    /// and every served session drive it). It must behave exactly like
    /// [`predict`](Self::predict) followed by [`update`](Self::update),
    /// which is the default. Table-backed predictors override it to probe
    /// their table once per producer; the probe still counts as the two
    /// accesses it stands for ([`PcTable::entry_pair`]). Pipelined callers
    /// drive the two phases separately.
    fn step(&mut self, pc: u64, actual: u64) -> Option<u64> {
        let predicted = self.predict(pc);
        self.update(pc, actual);
        predicted
    }

    /// Provenance tap: the delta this predictor would add to its base
    /// value for `pc` (a confirmed local stride, a learned address
    /// transition delta, …), for the prediction-attribution tables.
    ///
    /// Read-only and side-effect free — unlike [`predict`](Self::predict)
    /// it must not touch aliasing or access accounting. Predictors
    /// without a meaningful delta keep the `None` default.
    fn learned_diff(&self, _pc: u64) -> Option<i64> {
        None
    }
}

impl<P: ValuePredictor + ?Sized> ValuePredictor for Box<P> {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        (**self).update(pc, actual)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn step(&mut self, pc: u64, actual: u64) -> Option<u64> {
        (**self).step(pc, actual)
    }

    fn learned_diff(&self, pc: u64) -> Option<i64> {
        (**self).learned_diff(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_predictor_delegates() {
        let mut p: Box<dyn ValuePredictor> = Box::new(LastValuePredictor::new(Capacity::Unbounded));
        assert_eq!(p.predict(4), None);
        p.update(4, 7);
        assert_eq!(p.predict(4), Some(7));
        assert_eq!(p.name(), "last-value");
    }

    #[test]
    fn step_returns_the_prediction_made_before_training() {
        let mut p = LastValuePredictor::new(Capacity::Unbounded);
        assert_eq!(p.step(8, 1), None); // cold: no prediction
        assert_eq!(p.step(8, 1), Some(1)); // last value repeats
        assert_eq!(p.step(8, 2), Some(1)); // changed: the old value
        assert_eq!(p.predict(8), Some(2), "trained on the last step");
    }
}
