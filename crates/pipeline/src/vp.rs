//! Value-prediction engines: the pipeline-facing adapters around the
//! predictors of the `gdiff` and `predictors` crates.

use gdiff::{HgvqPredictor, HgvqToken, SgvqPredictor, SgvqToken};
use predictors::{
    Capacity, DfcmPredictor, GatedPredictor, PredictorStats, StridePredictor, ValuePredictor,
};
use workloads::DynInst;

/// Dispatch-time prediction state carried in a reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpToken {
    /// No prediction infrastructure, or a non-value-producing instruction.
    None,
    /// A local predictor's gated prediction.
    Plain {
        /// The predicted value, if the predictor offered one.
        predicted: Option<u64>,
        /// Whether confidence endorsed it.
        confident: bool,
        /// Provenance: the delta the predictor added to its base value
        /// (e.g. the confirmed local stride), when it exposes one.
        diff: Option<i64>,
    },
    /// An SGVQ gDiff token.
    Sgvq(SgvqToken),
    /// An HGVQ gDiff token.
    Hgvq(HgvqToken),
}

impl VpToken {
    /// The predicted value, if any.
    pub fn predicted(&self) -> Option<u64> {
        match self {
            VpToken::None => None,
            VpToken::Plain { predicted, .. } => *predicted,
            VpToken::Sgvq(t) => t.prediction.map(|g| g.value),
            VpToken::Hgvq(t) => t.prediction.map(|g| g.value),
        }
    }

    /// The provenance fields this token carries for
    /// [`obs::provenance`](obs::provenance) emission.
    pub fn provenance(&self) -> TokenProvenance {
        match self {
            VpToken::None => TokenProvenance::default(),
            VpToken::Plain { diff, .. } => TokenProvenance {
                diff: *diff,
                ..TokenProvenance::default()
            },
            VpToken::Sgvq(t) => TokenProvenance {
                chosen_k: t.chosen_k,
                diff: t.diff,
                fill_depth: t.fill_depth,
                filler_backed: false,
            },
            VpToken::Hgvq(t) => TokenProvenance {
                chosen_k: t.chosen_k,
                diff: t.diff,
                fill_depth: t.fill_depth,
                filler_backed: t.filler.is_some(),
            },
        }
    }

    /// The predicted value when confidence endorsed it — the only form the
    /// pipeline is allowed to speculate on.
    pub fn confident_prediction(&self) -> Option<u64> {
        match self {
            VpToken::None => None,
            VpToken::Plain {
                predicted,
                confident,
                ..
            } => predicted.filter(|_| *confident),
            VpToken::Sgvq(t) => t.prediction.filter(|g| g.confident).map(|g| g.value),
            VpToken::Hgvq(t) => t.prediction.filter(|g| g.confident).map(|g| g.value),
        }
    }
}

/// Provenance fields extracted from a [`VpToken`] for the
/// [`obs::provenance`](obs::provenance) tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenProvenance {
    /// The gDiff distance selected at dispatch, if any.
    pub chosen_k: Option<u16>,
    /// The delta backing the prediction (gDiff stored difference, or a
    /// local predictor's confirmed stride).
    pub diff: Option<i64>,
    /// Values in the global queue at dispatch (0 for queueless engines).
    pub fill_depth: u64,
    /// Whether an HGVQ slot pre-filled by the local filler backed the
    /// prediction.
    pub filler_backed: bool,
}

/// A value-prediction engine driven by the pipeline: asked for a prediction
/// at dispatch, told the outcome at write-back.
///
/// [`dispatch`](Self::dispatch) is called for every *value-producing*
/// instruction in dispatch order; [`writeback`](Self::writeback) is called
/// exactly once per such instruction, in completion order. Write-back is
/// the simulator's hot path: the gDiff engines train through the batched
/// queue-window kernel (`GlobalValueQueue::window` lending its lanes in
/// place to `GDiffCore::update_from_window`) inside `complete`/`writeback`,
/// so one pipeline step costs one queue pass rather than `order` slot
/// reads.
///
/// `dispatch` receives the whole [`DynInst`]; real engines must only use
/// its `pc` — the full record exists so the [`OracleEngine`] limit study
/// can cheat by design.
pub trait VpEngine: std::fmt::Debug {
    /// Dispatch-phase hook.
    fn dispatch(&mut self, inst: &DynInst) -> VpToken;

    /// Write-back-phase hook.
    fn writeback(&mut self, pc: u64, token: &VpToken, actual: u64);

    /// Report name for experiment output.
    fn name(&self) -> &'static str;

    /// The learned global-stride distance for `pc`, when this engine is a
    /// gDiff variant whose table has locked onto one.
    ///
    /// Tracing metadata only: the simulator queries it after a prediction
    /// (and only while tracing is enabled) to stamp `gvq-hit` events with
    /// the queue distance the match came from. Engines without a global
    /// value queue keep the default `None`.
    fn learned_distance(&self, pc: u64) -> Option<u64> {
        let _ = pc;
        None
    }
}

/// The no-value-prediction baseline.
#[derive(Debug, Default)]
pub struct NoVp;

impl VpEngine for NoVp {
    fn dispatch(&mut self, _inst: &DynInst) -> VpToken {
        VpToken::None
    }

    fn writeback(&mut self, _pc: u64, _token: &VpToken, _actual: u64) {}

    fn name(&self) -> &'static str {
        "none"
    }
}

/// A local predictor (any [`ValuePredictor`]) with the paper's confidence
/// gating, predicting at dispatch and updating at write-back.
#[derive(Debug)]
pub struct LocalEngine<P> {
    gated: GatedPredictor<P>,
    name: &'static str,
}

impl LocalEngine<StridePredictor> {
    /// The paper's "local stride" pipeline configuration: 8K-entry tagless
    /// tables.
    pub fn stride_8k() -> Self {
        LocalEngine {
            gated: GatedPredictor::with_defaults(
                StridePredictor::new(Capacity::Entries(8192)),
                Capacity::Entries(8192),
            ),
            name: "local-stride",
        }
    }
}

impl LocalEngine<DfcmPredictor> {
    /// The paper's "local context" pipeline configuration: 8K-entry level-1
    /// table, 64K-entry level-2.
    pub fn dfcm_8k() -> Self {
        LocalEngine {
            gated: GatedPredictor::with_defaults(
                DfcmPredictor::new(Capacity::Entries(8192), 4, 16),
                Capacity::Entries(8192),
            ),
            name: "local-context",
        }
    }
}

impl<P: ValuePredictor> LocalEngine<P> {
    /// Wraps an arbitrary predictor with default confidence and an 8K
    /// confidence table.
    pub fn new(inner: P, name: &'static str) -> Self {
        LocalEngine {
            gated: GatedPredictor::with_defaults(inner, Capacity::Entries(8192)),
            name,
        }
    }
}

impl<P: ValuePredictor + std::fmt::Debug> VpEngine for LocalEngine<P> {
    fn dispatch(&mut self, inst: &DynInst) -> VpToken {
        let pc = inst.pc;
        let diff = self.gated.inner().learned_diff(pc);
        match self.gated.predict(pc) {
            Some(g) => VpToken::Plain {
                predicted: Some(g.value),
                confident: g.confident,
                diff,
            },
            None => VpToken::Plain {
                predicted: None,
                confident: false,
                diff,
            },
        }
    }

    fn writeback(&mut self, pc: u64, token: &VpToken, actual: u64) {
        self.gated.resolve(pc, token.predicted(), actual);
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// The gDiff predictor with a speculative global value queue (§4).
#[derive(Debug)]
pub struct SgvqEngine {
    inner: SgvqPredictor,
}

impl SgvqEngine {
    /// The paper's configuration: 8K-entry table, queue order 32.
    pub fn paper_default() -> Self {
        SgvqEngine {
            inner: SgvqPredictor::new(Capacity::Entries(8192), 32, Capacity::Entries(8192)),
        }
    }

    /// Custom geometry.
    pub fn new(table: Capacity, order: usize) -> Self {
        SgvqEngine {
            inner: SgvqPredictor::new(table, order, table),
        }
    }
}

impl VpEngine for SgvqEngine {
    fn dispatch(&mut self, inst: &DynInst) -> VpToken {
        VpToken::Sgvq(self.inner.dispatch(inst.pc))
    }

    fn writeback(&mut self, pc: u64, token: &VpToken, actual: u64) {
        if let VpToken::Sgvq(t) = token {
            self.inner.complete(pc, t, actual);
        }
    }

    fn name(&self) -> &'static str {
        "gdiff-sgvq"
    }

    fn learned_distance(&self, pc: u64) -> Option<u64> {
        self.inner
            .core()
            .entry(pc)
            .and_then(|e| e.distance())
            .map(|d| d as u64)
    }
}

/// The gDiff predictor with the hybrid global value queue (§5) — the
/// paper's headline engine.
#[derive(Debug)]
pub struct HgvqEngine<F = StridePredictor> {
    inner: HgvqPredictor<F>,
}

impl HgvqEngine<StridePredictor> {
    /// The paper's configuration: 8K-entry tables, queue order 32, local
    /// stride filler.
    pub fn paper_default() -> Self {
        HgvqEngine {
            inner: HgvqPredictor::with_stride_filler(
                Capacity::Entries(8192),
                32,
                Capacity::Entries(8192),
            ),
        }
    }

    /// Custom geometry.
    pub fn new(table: Capacity, order: usize) -> Self {
        HgvqEngine {
            inner: HgvqPredictor::with_stride_filler(table, order, table),
        }
    }
}

impl<F: ValuePredictor> HgvqEngine<F> {
    /// Wraps a fully custom [`HgvqPredictor`] (alternate fillers,
    /// confidence ablations).
    pub fn from_predictor(inner: HgvqPredictor<F>) -> Self {
        HgvqEngine { inner }
    }
}

impl<F: ValuePredictor + std::fmt::Debug> VpEngine for HgvqEngine<F> {
    fn dispatch(&mut self, inst: &DynInst) -> VpToken {
        VpToken::Hgvq(self.inner.dispatch(inst.pc))
    }

    fn writeback(&mut self, pc: u64, token: &VpToken, actual: u64) {
        if let VpToken::Hgvq(t) = token {
            self.inner.writeback(pc, t, actual);
        }
    }

    fn name(&self) -> &'static str {
        "gdiff-hgvq"
    }

    fn learned_distance(&self, pc: u64) -> Option<u64> {
        self.inner
            .core()
            .entry(pc)
            .and_then(|e| e.distance())
            .map(|d| d as u64)
    }
}

/// Perfect value prediction: always confident, always right — the limit
/// study of Sazeides's "modeling value prediction" \[24\], bounding what
/// any predictor could buy on this machine.
#[derive(Debug, Default)]
pub struct OracleEngine;

impl VpEngine for OracleEngine {
    fn dispatch(&mut self, inst: &DynInst) -> VpToken {
        VpToken::Plain {
            predicted: Some(inst.value),
            confident: true,
            diff: None,
        }
    }

    fn writeback(&mut self, _pc: u64, _token: &VpToken, _actual: u64) {}

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Accumulates predictor accuracy/coverage statistics from tokens, the way
/// the simulator observes them at write-back.
pub(crate) fn record_token(stats: &mut PredictorStats, token: &VpToken, actual: u64) {
    let confident = token.confident_prediction().is_some();
    stats.record(token.predicted(), confident, actual);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal value-producing instruction at `pc`.
    fn at(pc: u64) -> DynInst {
        DynInst::alu(pc, 1, [None, None], 0)
    }

    #[test]
    fn no_vp_is_silent() {
        let mut e = NoVp;
        let t = e.dispatch(&at(0x40));
        assert_eq!(t.predicted(), None);
        assert_eq!(t.confident_prediction(), None);
        e.writeback(0x40, &t, 7);
    }

    #[test]
    fn local_engine_learns_and_gains_confidence() {
        let mut e = LocalEngine::stride_8k();
        let mut confident_at = None;
        for i in 0..10u64 {
            let t = e.dispatch(&at(0x40));
            if t.confident_prediction() == Some(i * 4) && confident_at.is_none() {
                confident_at = Some(i);
            }
            e.writeback(0x40, &t, i * 4);
        }
        assert!(confident_at.is_some(), "stride stream becomes confident");
    }

    #[test]
    fn hgvq_engine_round_trips() {
        let mut e = HgvqEngine::paper_default();
        for i in 0..40u64 {
            let ta = e.dispatch(&at(0xa0));
            let tb = e.dispatch(&at(0xb0));
            e.writeback(0xa0, &ta, i);
            e.writeback(0xb0, &tb, i + 2);
            if i > 10 {
                assert_eq!(tb.predicted(), Some(i + 2), "iteration {i}");
            }
        }
    }

    #[test]
    fn sgvq_engine_round_trips() {
        let mut e = SgvqEngine::paper_default();
        for i in 0..40u64 {
            let ta = e.dispatch(&at(0xa0));
            e.writeback(0xa0, &ta, i * 2);
            let tb = e.dispatch(&at(0xb0));
            e.writeback(0xb0, &tb, i * 2 + 6);
        }
        let t = e.dispatch(&at(0xa0));
        assert!(t.predicted().is_some());
    }

    #[test]
    fn learned_distance_surfaces_after_training() {
        let mut e = HgvqEngine::paper_default();
        assert_eq!(
            e.learned_distance(0xb0),
            None,
            "untrained entry has no distance"
        );
        for i in 0..40u64 {
            let ta = e.dispatch(&at(0xa0));
            let tb = e.dispatch(&at(0xb0));
            e.writeback(0xa0, &ta, i);
            e.writeback(0xb0, &tb, i + 2);
        }
        // 0xb0 always sees 0xa0's value two back in the global stream, so a
        // distance must have been learned; engines without a queue never
        // report one.
        assert!(e.learned_distance(0xb0).is_some());
        assert_eq!(NoVp.learned_distance(0xb0), None);
    }

    #[test]
    fn token_provenance_surfaces_taps() {
        let mut e = LocalEngine::stride_8k();
        for i in 0..6u64 {
            let t = e.dispatch(&at(0x40));
            e.writeback(0x40, &t, i * 4);
        }
        let t = e.dispatch(&at(0x40));
        assert_eq!(t.provenance().diff, Some(4), "confirmed local stride");
        assert_eq!(t.provenance().chosen_k, None, "no queue distance");

        let mut h = HgvqEngine::paper_default();
        for i in 0..40u64 {
            let ta = h.dispatch(&at(0xa0));
            let tb = h.dispatch(&at(0xb0));
            h.writeback(0xa0, &ta, i);
            h.writeback(0xb0, &tb, i + 2);
        }
        let p = h.dispatch(&at(0xb0)).provenance();
        assert!(p.chosen_k.is_some(), "learned distance is tapped");
        assert!(p.diff.is_some());
        assert!(p.fill_depth > 0);
        assert_eq!(VpToken::None.provenance(), TokenProvenance::default());
    }

    #[test]
    fn record_token_counts_confidence_correctly() {
        let mut s = PredictorStats::new();
        record_token(
            &mut s,
            &VpToken::Plain {
                predicted: Some(5),
                confident: true,
                diff: None,
            },
            5,
        );
        record_token(
            &mut s,
            &VpToken::Plain {
                predicted: Some(5),
                confident: false,
                diff: None,
            },
            6,
        );
        record_token(&mut s, &VpToken::None, 9);
        assert_eq!(s.total(), 3);
        assert_eq!(s.confident(), 1);
        assert_eq!(s.confident_correct(), 1);
    }
}
