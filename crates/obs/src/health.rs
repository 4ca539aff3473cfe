//! Online accuracy health: is a session still predicting as well as it
//! did when it warmed up?
//!
//! gDiff's value proposition is *sustained* global-stride accuracy. A
//! long-running session can silently lose it — the workload phase
//! changes, the stride family shifts — and an end-of-run scalar only
//! reveals that after the fact. This module watches the resolved
//! prediction stream live:
//!
//! * a **window** of the last [`HealthConfig::window`] resolved
//!   predictions gives a current accuracy and coverage;
//! * an **EWMA baseline** tracks accuracy through warmup and is frozen
//!   at the first post-warmup sample — the "this is what healthy looks
//!   like" reference;
//! * a **Page–Hinkley detector** (a one-sided CUSUM on
//!   `baseline − accuracy`) accumulates sustained degradation and fires
//!   once it exceeds `lambda`, tolerating `delta` of slack per sample so
//!   ordinary noise never alarms.
//!
//! State machine: `Warming → Ok ⇄ Drifting` (plus `Killed`, set
//! externally when containment ends the session). Transitions surface as
//! [`HealthEvent`]s, which the serve layer turns into journal records
//! and a `serve_session_health` Prometheus gauge.
//!
//! Everything here is deterministic: the monitor consumes only the
//! resolved prediction stream (no clocks, no sampling), so the same
//! stream always produces the same transitions at any parallelism or
//! chunking.

use crate::json::JsonValue;

/// Tuning for [`HealthMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Resolved predictions per accuracy window.
    pub window: usize,
    /// Per-sample slack in the Page–Hinkley sum: degradation smaller
    /// than this never accumulates.
    pub delta: f64,
    /// Alarm threshold for the Page–Hinkley sum. With binary samples the
    /// worst case adds `baseline − delta` per miss, so an accuracy
    /// collapse from a baseline of 1.0 alarms after roughly
    /// `lambda / (1 − delta)` misses.
    pub lambda: f64,
    /// Minimum resolved predictions before the baseline may freeze when
    /// the producer declared no warmup of its own.
    pub min_baseline: usize,
    /// EWMA smoothing factor for the baseline while it tracks.
    pub ewma_alpha: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 256,
            delta: 0.05,
            lambda: 8.0,
            min_baseline: 64,
            ewma_alpha: 0.02,
        }
    }
}

/// Where a session sits on the health ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Baseline not yet frozen; the detector is blind by design.
    Warming,
    /// Accuracy consistent with the frozen baseline.
    Ok,
    /// The Page–Hinkley sum crossed `lambda`: sustained degradation.
    Drifting,
    /// Containment ended the session (set via [`HealthMonitor::kill`]).
    Killed,
}

impl HealthState {
    /// Canonical lower-case name (the protocol/JSON surface).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Warming => "warming",
            HealthState::Ok => "ok",
            HealthState::Drifting => "drifting",
            HealthState::Killed => "killed",
        }
    }

    /// Gauge encoding for Prometheus: 0 = ok/warming, 1 = drifting,
    /// 2 = killed.
    pub fn as_gauge(self) -> f64 {
        match self {
            HealthState::Warming | HealthState::Ok => 0.0,
            HealthState::Drifting => 1.0,
            HealthState::Killed => 2.0,
        }
    }
}

/// A state transition worth telling an operator about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthEvent {
    /// The EWMA baseline froze; the detector is now armed.
    BaselineCaptured {
        /// The frozen accuracy reference.
        baseline: f64,
        /// Resolved predictions consumed before freezing.
        samples: u64,
    },
    /// Sustained degradation crossed the alarm threshold.
    DriftDetected {
        /// The frozen baseline being degraded from.
        baseline: f64,
        /// Windowed accuracy at the moment of alarm.
        window_accuracy: f64,
        /// The Page–Hinkley sum that crossed `lambda`.
        ph: f64,
        /// Resolved predictions consumed so far.
        samples: u64,
    },
    /// Windowed accuracy climbed back within `delta` of the baseline.
    DriftRecovered {
        /// The frozen baseline.
        baseline: f64,
        /// Windowed accuracy at recovery.
        window_accuracy: f64,
        /// Resolved predictions consumed so far.
        samples: u64,
    },
}

/// A fixed-size ring over the last N resolved predictions, counting
/// predicted (coverage) and correct (accuracy) bits.
#[derive(Debug, Clone)]
struct Window {
    /// 2 bits per slot packed flat: bit0 = predicted, bit1 = correct.
    slots: Vec<u8>,
    next: usize,
    filled: usize,
    predicted: u32,
    correct: u32,
}

impl Window {
    fn new(cap: usize) -> Window {
        Window {
            slots: vec![0; cap.max(1)],
            next: 0,
            filled: 0,
            predicted: 0,
            correct: 0,
        }
    }

    fn push(&mut self, predicted: bool, correct: bool) {
        if self.filled == self.slots.len() {
            let old = self.slots[self.next];
            self.predicted -= u32::from(old & 1 != 0);
            self.correct -= u32::from(old & 2 != 0);
        } else {
            self.filled += 1;
        }
        self.slots[self.next] = u8::from(predicted) | (u8::from(correct) << 1);
        self.predicted += u32::from(predicted);
        self.correct += u32::from(correct);
        self.next += 1;
        if self.next == self.slots.len() {
            self.next = 0;
        }
    }

    fn full(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// Correct / resolved over the window (1.0 on an empty window, so a
    /// fresh monitor reads as healthy, not broken).
    fn accuracy(&self) -> f64 {
        if self.filled == 0 {
            1.0
        } else {
            f64::from(self.correct) / self.filled as f64
        }
    }

    /// Predicted / resolved over the window.
    fn coverage(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            f64::from(self.predicted) / self.filled as f64
        }
    }
}

/// The per-session monitor: feed it every resolved prediction, surface
/// whatever [`HealthEvent`]s come back.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    window: Window,
    state: HealthState,
    /// EWMA of per-sample correctness; frozen into `baseline` once.
    ewma: f64,
    ewma_samples: u64,
    baseline: Option<f64>,
    /// The running Page–Hinkley sum (only meaningful in `Ok`).
    ph: f64,
    samples: u64,
    drift_alarms: u64,
    /// Saw at least one in-warmup sample: the producer declared a real
    /// warmup phase, so the baseline freezes the moment it ends.
    saw_warmup: bool,
    /// `samples` at the most recent alarm; recovery is only considered
    /// once a full window has been collected after it.
    alarm_sample: u64,
}

impl HealthMonitor {
    /// A monitor in `Warming`, detector unarmed.
    pub fn new(cfg: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            cfg,
            window: Window::new(cfg.window),
            state: HealthState::Warming,
            ewma: 0.0,
            ewma_samples: 0,
            baseline: None,
            ph: 0.0,
            samples: 0,
            drift_alarms: 0,
            saw_warmup: false,
            alarm_sample: 0,
        }
    }

    /// Consumes one resolved prediction. `predicted` is whether the
    /// predictor ventured a value (coverage); `correct` whether it was
    /// right; `past_warmup` whether the producer considers its own
    /// warmup phase over (the serve session's `producers >= warmup`).
    /// Returns the state transition this sample caused, if any.
    pub fn on_resolved(
        &mut self,
        predicted: bool,
        correct: bool,
        past_warmup: bool,
    ) -> Option<HealthEvent> {
        self.samples += 1;
        self.window.push(predicted, correct);
        let x = f64::from(u8::from(correct));
        if self.baseline.is_none() {
            // Track the EWMA until the freeze point: the first sample
            // after the producer's declared warmup ends, or
            // `min_baseline` samples when the producer declared none
            // (`past_warmup` was true from the very first sample). A
            // declared warmup is never cut short: a half-warm baseline
            // reads artificially low and makes the detector flap.
            self.ewma_samples += 1;
            if self.ewma_samples == 1 {
                self.ewma = x;
            } else {
                self.ewma += self.cfg.ewma_alpha * (x - self.ewma);
            }
            if !past_warmup {
                self.saw_warmup = true;
                return None;
            }
            let floor = if self.saw_warmup {
                8
            } else {
                self.cfg.min_baseline as u64
            };
            if self.ewma_samples >= floor {
                let baseline = self.ewma;
                self.baseline = Some(baseline);
                self.state = HealthState::Ok;
                self.ph = 0.0;
                return Some(HealthEvent::BaselineCaptured {
                    baseline,
                    samples: self.samples,
                });
            }
            return None;
        }
        let baseline = self.baseline.expect("frozen above");
        match self.state {
            HealthState::Ok => {
                // One-sided CUSUM on degradation below the baseline.
                self.ph = (self.ph + (baseline - x - self.cfg.delta)).max(0.0);
                if self.ph > self.cfg.lambda {
                    self.state = HealthState::Drifting;
                    self.drift_alarms += 1;
                    self.alarm_sample = self.samples;
                    let ph = self.ph;
                    self.ph = 0.0;
                    return Some(HealthEvent::DriftDetected {
                        baseline,
                        window_accuracy: self.window.accuracy(),
                        ph,
                        samples: self.samples,
                    });
                }
            }
            HealthState::Drifting => {
                // Recovery asks a whole window *collected after the
                // alarm* to look healthy again — the window at alarm
                // time is still mostly pre-drift hits, and judging
                // recovery on those would flap the state straight back.
                let cycled = self.samples >= self.alarm_sample + self.cfg.window as u64;
                if cycled
                    && self.window.full()
                    && self.window.accuracy() + self.cfg.delta >= baseline
                {
                    self.state = HealthState::Ok;
                    self.ph = 0.0;
                    return Some(HealthEvent::DriftRecovered {
                        baseline,
                        window_accuracy: self.window.accuracy(),
                        samples: self.samples,
                    });
                }
            }
            HealthState::Warming | HealthState::Killed => {}
        }
        None
    }

    /// Marks the session killed (terminal; containment already logged
    /// why).
    pub fn kill(&mut self) {
        self.state = HealthState::Killed;
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The frozen baseline, if captured.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Windowed accuracy over the last `window` resolved predictions.
    pub fn window_accuracy(&self) -> f64 {
        self.window.accuracy()
    }

    /// Windowed coverage over the last `window` resolved predictions.
    pub fn window_coverage(&self) -> f64 {
        self.window.coverage()
    }

    /// Resolved predictions consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Drift alarms fired over the session's lifetime.
    pub fn drift_alarms(&self) -> u64 {
        self.drift_alarms
    }

    /// The JSON surface served in `HEALTH` frames and shown by
    /// `serve-client --health`.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object()
            .with("state", self.state.as_str())
            .with("samples", self.samples)
            .with("window_accuracy", self.window.accuracy())
            .with("window_coverage", self.window.coverage())
            .with("drift_alarms", self.drift_alarms);
        if let Some(b) = self.baseline {
            v.set("baseline", b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    /// Drives `n` samples with a fixed accuracy pattern; returns events.
    fn drive(
        m: &mut HealthMonitor,
        n: usize,
        correct: impl Fn(usize) -> bool,
        past_warmup: bool,
    ) -> Vec<HealthEvent> {
        (0..n)
            .filter_map(|i| m.on_resolved(true, correct(i), past_warmup))
            .collect()
    }

    #[test]
    fn baseline_freezes_at_end_of_warmup() {
        let mut m = HealthMonitor::new(cfg());
        // 8 in-warmup samples, then the first past-warmup sample freezes.
        let ev = drive(&mut m, 8, |_| true, false);
        assert!(ev.is_empty());
        assert_eq!(m.state(), HealthState::Warming);
        let ev = drive(&mut m, 1, |_| true, true);
        assert!(
            matches!(ev[0], HealthEvent::BaselineCaptured { baseline, .. }
            if (baseline - 1.0).abs() < 1e-12)
        );
        assert_eq!(m.state(), HealthState::Ok);
    }

    #[test]
    fn baseline_freezes_without_warmup_after_min_samples() {
        // A warmup-0 producer reports past_warmup from the first sample;
        // the baseline still waits for `min_baseline` samples.
        let mut m = HealthMonitor::new(cfg());
        let ev = drive(&mut m, cfg().min_baseline - 1, |_| true, true);
        assert!(ev.is_empty());
        assert_eq!(m.state(), HealthState::Warming);
        let ev = drive(&mut m, 1, |_| true, true);
        assert_eq!(ev.len(), 1);
        assert_eq!(m.state(), HealthState::Ok);
    }

    #[test]
    fn declared_warmup_is_never_cut_short() {
        // Even far past `min_baseline` samples, the baseline holds off
        // until the producer says its warmup is over — freezing a
        // half-warm EWMA would arm the detector on a false reference.
        let mut m = HealthMonitor::new(cfg());
        let ev = drive(&mut m, 4 * cfg().min_baseline, |i| i % 2 == 0, false);
        assert!(ev.is_empty());
        assert_eq!(m.state(), HealthState::Warming);
        let ev = drive(&mut m, 1, |_| true, true);
        assert!(matches!(ev[0], HealthEvent::BaselineCaptured { .. }));
    }

    #[test]
    fn accuracy_collapse_alarms_within_the_window_bound() {
        let mut m = HealthMonitor::new(cfg());
        drive(&mut m, 64, |_| true, true);
        assert_eq!(m.state(), HealthState::Ok);
        // Everything wrong from here: with baseline ≈ 1 and delta 0.05,
        // each miss adds ~0.95, so lambda 8 trips in ~9 samples — far
        // inside one 256-sample window.
        let mut fired_at = None;
        for i in 0..cfg().window {
            if let Some(HealthEvent::DriftDetected { .. }) = m.on_resolved(true, false, true) {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("collapse must alarm");
        assert!(at < 16, "alarm after {at} misses");
        assert_eq!(m.state(), HealthState::Drifting);
        assert_eq!(m.drift_alarms(), 1);
    }

    #[test]
    fn stable_stream_with_noise_never_alarms() {
        let mut m = HealthMonitor::new(cfg());
        // 90% accuracy throughout: baseline tracks it, and the steady
        // miss rate stays inside the delta slack.
        let ev = drive(&mut m, 20_000, |i| i % 10 != 0, true);
        assert_eq!(ev.len(), 1, "only the baseline capture: {ev:?}");
        assert!(matches!(ev[0], HealthEvent::BaselineCaptured { .. }));
        assert_eq!(m.state(), HealthState::Ok);
        assert_eq!(m.drift_alarms(), 0);
    }

    #[test]
    fn recovery_needs_a_full_healthy_window() {
        let mut m = HealthMonitor::new(cfg());
        drive(&mut m, 64, |_| true, true);
        drive(&mut m, 32, |_| false, true);
        assert_eq!(m.state(), HealthState::Drifting);
        // Healthy again: recovery fires only once the window has cycled
        // past the bad stretch.
        let ev = drive(&mut m, 2 * cfg().window, |_| true, true);
        assert!(ev
            .iter()
            .any(|e| matches!(e, HealthEvent::DriftRecovered { .. })));
        assert_eq!(m.state(), HealthState::Ok);
    }

    #[test]
    fn chunking_never_changes_transitions() {
        // The monitor is stream-deterministic: feeding the same samples
        // one at a time or in bursts produces identical event sequences.
        let pattern = |i: usize| !(i / 7).is_multiple_of(3);
        let mut a = HealthMonitor::new(cfg());
        let mut b = HealthMonitor::new(cfg());
        let ev_a = drive(&mut a, 4096, pattern, true);
        let mut ev_b = Vec::new();
        let mut fed = 0;
        for burst in [1usize, 64, 500, 3531] {
            ev_b.extend(drive(&mut b, burst, |i| pattern(fed + i), true));
            fed += burst;
        }
        assert_eq!(ev_a, ev_b);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.window_accuracy(), b.window_accuracy());
    }

    #[test]
    fn window_counts_coverage_and_accuracy_separately() {
        let mut m = HealthMonitor::new(HealthConfig { window: 4, ..cfg() });
        m.on_resolved(true, true, false);
        m.on_resolved(false, false, false);
        m.on_resolved(true, false, false);
        m.on_resolved(true, true, false);
        assert!((m.window_coverage() - 0.75).abs() < 1e-12);
        assert!((m.window_accuracy() - 0.5).abs() < 1e-12);
        // Ring overwrite drops the oldest sample's contribution.
        m.on_resolved(false, false, false);
        assert!((m.window_coverage() - 0.5).abs() < 1e-12);
        assert!((m.window_accuracy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn killed_is_terminal_and_gauges_encode() {
        let mut m = HealthMonitor::new(cfg());
        drive(&mut m, 64, |_| true, true);
        m.kill();
        assert_eq!(m.state(), HealthState::Killed);
        assert!(m.on_resolved(true, false, true).is_none());
        assert_eq!(m.state(), HealthState::Killed);
        assert_eq!(HealthState::Ok.as_gauge(), 0.0);
        assert_eq!(HealthState::Drifting.as_gauge(), 1.0);
        assert_eq!(HealthState::Killed.as_gauge(), 2.0);
        let j = m.to_json();
        assert_eq!(j.path("state").and_then(|v| v.as_str()), Some("killed"));
    }
}
