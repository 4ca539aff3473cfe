//! Prediction provenance: attribute every value-prediction outcome back
//! to its static instruction, chosen distance, and queue state.
//!
//! The simulator's aggregate `vp.*` counters say *that* accuracy moved;
//! this module answers *why*. Prediction sites emit a
//! [`PredictionMade`]/[`PredictionResolved`] pair into
//! [`Provenance::record`], and the aggregator folds them
//! online — no unbounded event storage on the hot path — into:
//!
//! - per-PC accuracy/coverage cells (the paper's per-static-load view,
//!   §3);
//! - a distance × correctness matrix (which selected `k` wins, §3);
//! - a value-delay × correctness matrix (how late writebacks erode GVQ
//!   usefulness, §4);
//! - per-op-class breakdowns;
//! - a bounded flight recorder: a ring of the last few raw event pairs,
//!   snapshotted when the recent mispredict rate spikes versus the
//!   long-run rate, for post-mortem forensics.
//!
//! Aggregates merge deterministically ([`Provenance::merge`]) exactly
//! like [`Registry::merge`](crate::Registry::merge): scheduler workers
//! each own a private aggregate and the collector folds them in plan
//! order, so `-jN` output stays byte-identical. Everything is std-only
//! and contains no wall-clock or address-dependent state.

use std::collections::{BTreeMap, VecDeque};

use crate::json::JsonValue;

/// A prediction attempt, captured at dispatch for one value-producing
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionMade {
    /// Static instruction address.
    pub pc: u64,
    /// Operation class name (`"load"`, `"int_alu"`, ...). A `&'static
    /// str` keeps this crate dependency-free; callers map their enum.
    pub op_class: &'static str,
    /// The global-stride distance the gDiff table selected, if any.
    /// `None` for non-gDiff predictors and untrained entries.
    pub chosen_k: Option<u16>,
    /// The difference the predictor added to the base value: the stored
    /// gDiff stride at `chosen_k`, or a local predictor's learned delta.
    pub diff: Option<i64>,
    /// Whether the confidence gate let the prediction into the pipeline.
    pub conf: bool,
    /// The predicted value, when the predictor produced one at all.
    pub predicted: Option<u64>,
    /// Resolved values in the GVQ at prediction time (≤ queue order).
    pub gvq_fill_depth: u64,
    /// Value-producing instructions in flight (dispatched, unresolved)
    /// when this prediction was made.
    pub inflight_count: u64,
}

/// The outcome of a prediction, captured at writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionResolved {
    /// Whether `predicted == Some(actual)`.
    pub correct: bool,
    /// The committed value.
    pub actual: u64,
    /// Cycles between dispatch and value writeback — the paper's "value
    /// delay" (§4).
    pub value_delay_cycles: u64,
    /// Whether an HGVQ slot pre-filled by the local-stride filler backed
    /// this prediction (and was patched at writeback, §5).
    pub patched_by_hgvq: bool,
}

/// Per-PC accuracy/coverage cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcCell {
    /// Operation class of the static instruction (from its last event).
    pub op_class: &'static str,
    /// Resolved prediction attempts.
    pub made: u64,
    /// Attempts the confidence gate admitted.
    pub confident: u64,
    /// Attempts where the predicted value matched, gated or not.
    pub correct: u64,
    /// Admitted attempts that were also correct.
    pub correct_confident: u64,
    /// Attempts backed by an HGVQ filler slot.
    pub filler_patched: u64,
    /// Sum of value-delay cycles, for mean delay per PC.
    pub delay_sum: u64,
    /// Most recent selected distance.
    pub last_k: Option<u16>,
    /// Most recent predictor delta (gDiff diff or local stride).
    pub last_diff: Option<i64>,
    /// Times the selected distance changed between consecutive events.
    pub k_changes: u64,
}

impl PcCell {
    /// Fraction of attempts admitted by the confidence gate.
    pub fn coverage(&self) -> f64 {
        self.confident as f64 / self.made.max(1) as f64
    }

    /// Fraction of admitted attempts that were correct.
    pub fn accuracy(&self) -> f64 {
        self.correct_confident as f64 / self.confident.max(1) as f64
    }

    /// Fraction of all attempts whose predicted value matched.
    pub fn hit_rate(&self) -> f64 {
        self.correct as f64 / self.made.max(1) as f64
    }

    fn fold(&mut self, made: &PredictionMade, resolved: &PredictionResolved) {
        self.op_class = made.op_class;
        self.made += 1;
        self.confident += u64::from(made.conf);
        self.correct += u64::from(resolved.correct);
        self.correct_confident += u64::from(made.conf && resolved.correct);
        self.filler_patched += u64::from(resolved.patched_by_hgvq);
        self.delay_sum += resolved.value_delay_cycles;
        if made.chosen_k.is_some() && self.last_k != made.chosen_k && self.last_k.is_some() {
            self.k_changes += 1;
        }
        if made.chosen_k.is_some() {
            self.last_k = made.chosen_k;
        }
        if made.diff.is_some() {
            self.last_diff = made.diff;
        }
    }

    fn absorb(&mut self, other: &PcCell) {
        if !other.op_class.is_empty() {
            self.op_class = other.op_class;
        }
        self.made += other.made;
        self.confident += other.confident;
        self.correct += other.correct;
        self.correct_confident += other.correct_confident;
        self.filler_patched += other.filler_patched;
        self.delay_sum += other.delay_sum;
        self.last_k = other.last_k.or(self.last_k);
        self.last_diff = other.last_diff.or(self.last_diff);
        self.k_changes += other.k_changes;
    }

    /// JSON for this cell. The `last_k`/`last_diff`/`k_changes`
    /// diagnostics depend on event order, so they are emitted only when
    /// `order_sensitive` is set — they are deterministic for whole-cell
    /// aggregation but not invariant under arbitrary shard splits.
    fn to_json(self, pc: u64, order_sensitive: bool) -> JsonValue {
        let mut o = JsonValue::object()
            .with("pc", pc)
            .with("op_class", self.op_class)
            .with("made", self.made)
            .with("confident", self.confident)
            .with("correct", self.correct)
            .with("correct_confident", self.correct_confident)
            .with("filler_patched", self.filler_patched)
            .with("delay_sum", self.delay_sum);
        if order_sensitive {
            o.set("k_changes", self.k_changes);
            if let Some(k) = self.last_k {
                o.set("last_k", k as u64);
            }
            if let Some(d) = self.last_diff {
                o.set("last_diff", d);
            }
        }
        o
    }
}

/// One row of the distance × correctness matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceCell {
    /// Attempts whose selected distance fell in this row.
    pub made: u64,
    /// Gate-admitted attempts.
    pub confident: u64,
    /// Attempts whose predicted value matched.
    pub correct: u64,
    /// Admitted attempts that were also correct.
    pub correct_confident: u64,
    /// Attempts where the slot at this distance was still in flight at
    /// prediction time — distances that never resolve in time (§4).
    pub unresolved_at_predict: u64,
}

/// One row of the per-op-class breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCell {
    /// Resolved prediction attempts.
    pub made: u64,
    /// Gate-admitted attempts.
    pub confident: u64,
    /// Attempts whose predicted value matched.
    pub correct: u64,
    /// Admitted attempts that were also correct.
    pub correct_confident: u64,
}

/// A flight-recorder snapshot taken when the mispredict rate spiked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeDump {
    /// Total resolved events at the time of the snapshot.
    pub at_resolved: u64,
    /// The ring contents (oldest first) at the time of the snapshot.
    pub events: Vec<(PredictionMade, PredictionResolved)>,
}

/// Bounded ring of recent raw events plus mispredict-spike detection.
///
/// Deterministic by construction: the trigger compares the mispredict
/// rate over the last [`window`](FlightRecorder::WINDOW) resolutions
/// against the long-run rate — no wall clock, no sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<(PredictionMade, PredictionResolved)>,
    window: VecDeque<bool>,
    resolved: u64,
    mispredicts: u64,
    spikes: u64,
    dumps: Vec<SpikeDump>,
}

impl FlightRecorder {
    /// Resolutions in the rolling spike-detection window.
    pub const WINDOW: usize = 256;
    /// Maximum retained spike snapshots.
    pub const MAX_DUMPS: usize = 4;

    fn new(cap: usize) -> Self {
        FlightRecorder {
            cap,
            ring: VecDeque::with_capacity(cap),
            window: VecDeque::with_capacity(Self::WINDOW),
            resolved: 0,
            mispredicts: 0,
            spikes: 0,
            dumps: Vec::new(),
        }
    }

    fn record(&mut self, made: &PredictionMade, resolved: &PredictionResolved) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((*made, *resolved));
        self.resolved += 1;
        let miss = made.predicted.is_some() && !resolved.correct;
        self.mispredicts += u64::from(miss);
        if self.window.len() == Self::WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(miss);
        if self.window.len() == Self::WINDOW && self.resolved >= 2 * Self::WINDOW as u64 {
            let recent = self.window.iter().filter(|&&m| m).count() as f64 / Self::WINDOW as f64;
            let long_run = self.mispredicts as f64 / self.resolved as f64;
            if recent > 2.0 * long_run + 0.05 {
                self.spikes += 1;
                if self.dumps.len() < Self::MAX_DUMPS {
                    self.dumps.push(SpikeDump {
                        at_resolved: self.resolved,
                        events: self.ring.iter().copied().collect(),
                    });
                }
                // Restart the window so one sustained spike counts once.
                self.window.clear();
            }
        }
    }

    /// Spikes detected so far.
    pub fn spikes(&self) -> u64 {
        self.spikes
    }

    /// Retained spike snapshots.
    pub fn dumps(&self) -> &[SpikeDump] {
        &self.dumps
    }

    /// Current ring contents, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(PredictionMade, PredictionResolved)> {
        self.ring.iter()
    }

    fn absorb(&mut self, other: &FlightRecorder) {
        for ev in &other.ring {
            if self.ring.len() == self.cap {
                self.ring.pop_front();
            }
            self.ring.push_back(*ev);
        }
        self.resolved += other.resolved;
        self.mispredicts += other.mispredicts;
        self.spikes += other.spikes;
        for d in &other.dumps {
            if self.dumps.len() == Self::MAX_DUMPS {
                break;
            }
            self.dumps.push(d.clone());
        }
        // A merged window would interleave two histories; drop it rather
        // than fabricate a cross-shard spike.
        self.window.clear();
    }
}

fn event_json(made: &PredictionMade, resolved: &PredictionResolved) -> JsonValue {
    let mut o = JsonValue::object()
        .with("pc", made.pc)
        .with("op_class", made.op_class)
        .with("conf", made.conf)
        .with("gvq_fill_depth", made.gvq_fill_depth)
        .with("inflight_count", made.inflight_count)
        .with("correct", resolved.correct)
        .with("actual", resolved.actual)
        .with("value_delay_cycles", resolved.value_delay_cycles)
        .with("patched_by_hgvq", resolved.patched_by_hgvq);
    if let Some(k) = made.chosen_k {
        o.set("chosen_k", k as u64);
    }
    if let Some(d) = made.diff {
        o.set("diff", d);
    }
    if let Some(p) = made.predicted {
        o.set("predicted", p);
    }
    o
}

/// Online provenance aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    order: usize,
    delay_max: usize,
    per_pc: BTreeMap<u64, PcCell>,
    /// Index 0 = no distance selected; index k = distance k, clamped to
    /// `order`.
    distance: Vec<DistanceCell>,
    /// `delay[d] = [correct, incorrect]` over predicted attempts,
    /// clamped at `delay_max`.
    delay: Vec<[u64; 2]>,
    op_class: BTreeMap<&'static str, ClassCell>,
    recorder: FlightRecorder,
}

impl Provenance {
    /// Default flight-recorder ring capacity.
    pub const DEFAULT_RING: usize = 64;

    /// An empty aggregate for a queue of `order` distances and a delay
    /// matrix clamped at `delay_max` cycles.
    pub fn new(order: usize, delay_max: usize) -> Self {
        Provenance {
            order,
            delay_max,
            per_pc: BTreeMap::new(),
            distance: vec![DistanceCell::default(); order + 1],
            delay: vec![[0; 2]; delay_max + 1],
            op_class: BTreeMap::new(),
            recorder: FlightRecorder::new(Self::DEFAULT_RING),
        }
    }

    /// Queue order this aggregate was sized for.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total resolved events folded in.
    pub fn resolved(&self) -> u64 {
        self.recorder.resolved
    }

    /// Per-PC cells, keyed and iterated in PC order.
    pub fn per_pc(&self) -> &BTreeMap<u64, PcCell> {
        &self.per_pc
    }

    /// The distance × correctness matrix (index 0 = no distance).
    pub fn distance_matrix(&self) -> &[DistanceCell] {
        &self.distance
    }

    /// The delay × correctness matrix: `[correct, incorrect]` per cycle
    /// bucket, clamped at the top.
    pub fn delay_matrix(&self) -> &[[u64; 2]] {
        &self.delay
    }

    /// Per-op-class cells in name order.
    pub fn op_classes(&self) -> &BTreeMap<&'static str, ClassCell> {
        &self.op_class
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Merges another aggregate into this one, exactly like
    /// [`Registry::merge`](crate::Registry::merge): cells add index-wise
    /// and key-wise, so folding shards in any grouping yields identical
    /// tables.
    ///
    /// # Panics
    ///
    /// If the two aggregates were sized differently (order or delay
    /// clamp), mirroring `Histogram::merge`'s layout check.
    pub fn merge(&mut self, other: &Provenance) {
        assert_eq!(
            (self.order, self.delay_max),
            (other.order, other.delay_max),
            "can only merge provenance aggregates with identical layouts"
        );
        for (pc, cell) in &other.per_pc {
            self.per_pc.entry(*pc).or_default().absorb(cell);
        }
        for (mine, theirs) in self.distance.iter_mut().zip(&other.distance) {
            mine.made += theirs.made;
            mine.confident += theirs.confident;
            mine.correct += theirs.correct;
            mine.correct_confident += theirs.correct_confident;
            mine.unresolved_at_predict += theirs.unresolved_at_predict;
        }
        for (mine, theirs) in self.delay.iter_mut().zip(&other.delay) {
            mine[0] += theirs[0];
            mine[1] += theirs[1];
        }
        for (name, cell) in &other.op_class {
            let mine = self.op_class.entry(name).or_default();
            mine.made += cell.made;
            mine.confident += cell.confident;
            mine.correct += cell.correct;
            mine.correct_confident += cell.correct_confident;
        }
        self.recorder.absorb(&other.recorder);
    }

    /// The merge-invariant aggregate tables as JSON, with deterministic
    /// key and row order: folding any sharding of an event stream and
    /// merging yields byte-identical output. Excludes the flight
    /// recorder and the order-sensitive per-PC diagnostics (see
    /// [`Self::to_json`]).
    pub fn tables_json(&self) -> JsonValue {
        self.json_impl(false)
    }

    fn json_impl(&self, order_sensitive: bool) -> JsonValue {
        let per_pc = self
            .per_pc
            .iter()
            .map(|(pc, cell)| cell.to_json(*pc, order_sensitive))
            .collect::<Vec<_>>();
        let distance = self
            .distance
            .iter()
            .enumerate()
            .map(|(k, c)| {
                JsonValue::object()
                    .with("k", k as u64)
                    .with("made", c.made)
                    .with("confident", c.confident)
                    .with("correct", c.correct)
                    .with("correct_confident", c.correct_confident)
                    .with("unresolved_at_predict", c.unresolved_at_predict)
            })
            .collect::<Vec<_>>();
        let delay = self
            .delay
            .iter()
            .map(|[ok, bad]| JsonValue::Arr(vec![JsonValue::from(*ok), JsonValue::from(*bad)]))
            .collect::<Vec<_>>();
        let mut classes = JsonValue::object();
        for (name, c) in &self.op_class {
            classes.set(
                *name,
                JsonValue::object()
                    .with("made", c.made)
                    .with("confident", c.confident)
                    .with("correct", c.correct)
                    .with("correct_confident", c.correct_confident),
            );
        }
        JsonValue::object()
            .with("resolved", self.recorder.resolved)
            .with("per_pc", JsonValue::Arr(per_pc))
            .with("distance", JsonValue::Arr(distance))
            .with("delay", JsonValue::Arr(delay))
            .with("op_class", classes)
    }

    /// Full JSON export: the tables (including order-sensitive per-PC
    /// diagnostics, deterministic at a fixed merge order) plus the
    /// flight recorder. Raw ring and dump events are included only when
    /// `include_events` is set (`--dump-provenance`); spike counts are
    /// always present.
    pub fn to_json(&self, include_events: bool) -> JsonValue {
        let mut recorder = JsonValue::object()
            .with("resolved", self.recorder.resolved)
            .with("mispredicts", self.recorder.mispredicts)
            .with("spikes", self.recorder.spikes)
            .with("dump_count", self.recorder.dumps.len() as u64);
        if include_events {
            recorder.set(
                "ring",
                JsonValue::Arr(
                    self.recorder
                        .events()
                        .map(|(m, r)| event_json(m, r))
                        .collect(),
                ),
            );
            recorder.set(
                "dumps",
                JsonValue::Arr(
                    self.recorder
                        .dumps
                        .iter()
                        .map(|d| {
                            JsonValue::object().with("at_resolved", d.at_resolved).with(
                                "events",
                                JsonValue::Arr(
                                    d.events.iter().map(|(m, r)| event_json(m, r)).collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            );
        }
        self.json_impl(true).with("flight_recorder", recorder)
    }

    /// Folds one made/resolved pair into the aggregate.
    pub fn record(&mut self, made: &PredictionMade, resolved: &PredictionResolved) {
        self.per_pc.entry(made.pc).or_default().fold(made, resolved);

        let idx = made
            .chosen_k
            .map_or(0, |k| (k as usize).clamp(1, self.order));
        let d = &mut self.distance[idx];
        d.made += 1;
        d.confident += u64::from(made.conf);
        d.correct += u64::from(resolved.correct);
        d.correct_confident += u64::from(made.conf && resolved.correct);
        if let Some(k) = made.chosen_k {
            // The k-th most recent slot was still in flight when we
            // predicted: this distance could not have resolved in time.
            if made.inflight_count >= k as u64 {
                d.unresolved_at_predict += 1;
            }
        }

        if made.predicted.is_some() {
            let bucket = (resolved.value_delay_cycles as usize).min(self.delay_max);
            self.delay[bucket][usize::from(!resolved.correct)] += 1;
        }

        let c = self.op_class.entry(made.op_class).or_default();
        c.made += 1;
        c.confident += u64::from(made.conf);
        c.correct += u64::from(resolved.correct);
        c.correct_confident += u64::from(made.conf && resolved.correct);

        self.recorder.record(made, resolved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn made(pc: u64, k: Option<u16>, conf: bool, predicted: Option<u64>) -> PredictionMade {
        PredictionMade {
            pc,
            op_class: "load",
            chosen_k: k,
            diff: k.map(|k| k as i64 * 3),
            conf,
            predicted,
            gvq_fill_depth: 8,
            inflight_count: 2,
        }
    }

    fn resolved(correct: bool, delay: u64) -> PredictionResolved {
        PredictionResolved {
            correct,
            actual: 7,
            value_delay_cycles: delay,
            patched_by_hgvq: false,
        }
    }

    #[test]
    fn folds_per_pc_distance_and_delay() {
        let mut p = Provenance::new(8, 16);
        p.record(&made(0x40, Some(3), true, Some(7)), &resolved(true, 4));
        p.record(&made(0x40, Some(3), true, Some(9)), &resolved(false, 5));
        p.record(&made(0x44, None, false, None), &resolved(false, 1));

        let cell = p.per_pc()[&0x40];
        assert_eq!((cell.made, cell.confident, cell.correct), (2, 2, 1));
        assert_eq!(cell.last_k, Some(3));
        assert!((cell.coverage() - 1.0).abs() < 1e-9);
        assert!((cell.accuracy() - 0.5).abs() < 1e-9);

        assert_eq!(p.distance_matrix()[3].made, 2);
        assert_eq!(p.distance_matrix()[0].made, 1);
        assert_eq!(p.delay_matrix()[4], [1, 0]);
        assert_eq!(p.delay_matrix()[5], [0, 1]);
        // The no-prediction event contributes no delay bucket.
        assert_eq!(p.delay_matrix()[1], [0, 0]);
        assert_eq!(p.op_classes()["load"].made, 3);
    }

    #[test]
    fn distance_and_delay_clamp_at_the_top() {
        let mut p = Provenance::new(4, 8);
        p.record(&made(0x40, Some(40), true, Some(7)), &resolved(true, 99));
        assert_eq!(p.distance_matrix()[4].made, 1);
        assert_eq!(p.delay_matrix()[8], [1, 0]);
    }

    #[test]
    fn unresolved_counts_slots_still_in_flight() {
        let mut p = Provenance::new(8, 8);
        let mut m = made(0x40, Some(2), true, Some(7));
        m.inflight_count = 2; // slot 2 unresolved
        p.record(&m, &resolved(false, 1));
        m.inflight_count = 1; // slot 2 resolved
        p.record(&m, &resolved(true, 1));
        assert_eq!(p.distance_matrix()[2].unresolved_at_predict, 1);
    }

    #[test]
    fn merge_matches_single_aggregate() {
        let events: Vec<_> = (0..100)
            .map(|i| {
                (
                    made(
                        0x40 + (i % 5) * 4,
                        Some((i % 7) as u16 + 1),
                        i % 3 == 0,
                        Some(i),
                    ),
                    resolved(i % 4 == 0, i % 20),
                )
            })
            .collect();
        let mut single = Provenance::new(8, 16);
        let mut a = Provenance::new(8, 16);
        let mut b = Provenance::new(8, 16);
        for (i, (m, r)) in events.iter().enumerate() {
            single.record(m, r);
            if i % 2 == 0 {
                a.record(m, r);
            } else {
                b.record(m, r);
            }
        }
        a.merge(&b);
        assert_eq!(a.tables_json().to_json(), single.tables_json().to_json());
    }

    #[test]
    #[should_panic(expected = "identical layouts")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Provenance::new(8, 16);
        a.merge(&Provenance::new(4, 16));
    }

    #[test]
    fn spike_detection_fires_on_burst_and_is_bounded() {
        let mut p = Provenance::new(8, 8);
        // Long accurate stretch, then a burst of mispredictions.
        for i in 0..1024u64 {
            p.record(&made(0x40, Some(1), true, Some(7)), &resolved(true, i % 4));
        }
        for i in 0..4096u64 {
            p.record(&made(0x44, Some(2), true, Some(9)), &resolved(false, i % 4));
        }
        assert!(p.recorder().spikes() >= 1);
        assert!(p.recorder().dumps().len() <= FlightRecorder::MAX_DUMPS);
        let dump = &p.recorder().dumps()[0];
        assert!(!dump.events.is_empty());
        assert!(dump.events.len() <= Provenance::DEFAULT_RING);
    }

    #[test]
    fn json_has_stable_shape() {
        let mut p = Provenance::new(2, 2);
        p.record(&made(0x40, Some(1), true, Some(7)), &resolved(true, 1));
        let j = p.to_json(true);
        assert_eq!(j.path("resolved").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            j.path("flight_recorder.spikes").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert!(j.path("flight_recorder.ring").is_some());
        let reparsed = JsonValue::parse(&j.to_json()).expect("round-trips");
        assert_eq!(reparsed, j);
    }
}
