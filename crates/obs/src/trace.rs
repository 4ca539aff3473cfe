//! Cycle-stamped ring-buffer event tracer.
//!
//! One global [`Tracer`] records pipeline lifecycle events and predictor
//! decisions into a fixed-capacity ring, keeping only the most recent
//! events. It is off by default; when off, the only cost at an
//! instrumentation site is one relaxed atomic load and a branch — no
//! formatting, no locking, no allocation.
//!
//! ```
//! use obs::trace::{tracer, TraceEvent, TraceKind};
//!
//! tracer().enable(1024);
//! if tracer().enabled() {
//!     tracer().emit(TraceEvent::new(17, 3, 0x400, TraceKind::Dispatch));
//! }
//! let tail = tracer().last(10);
//! assert_eq!(tail.len(), 1);
//! tracer().disable();
//! ```

use crate::ring::Ring;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What happened at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Instruction entered the window (renamed/dispatched).
    Dispatch,
    /// Instruction left the scheduler for a functional unit.
    Issue,
    /// Instruction produced its result.
    Writeback,
    /// Instruction retired from the ROB.
    Commit,
    /// A value prediction was made at dispatch. `arg` carries the
    /// predicted value, `arg2` is 1 when the predictor was confident.
    ValuePredict,
    /// A consumer was squashed and reissued after a value misprediction.
    Reissue,
    /// The predictor matched a global stride at distance `arg` in the
    /// value queue.
    GvqHit,
}

impl TraceKind {
    /// Short lowercase label used in trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Dispatch => "dispatch",
            TraceKind::Issue => "issue",
            TraceKind::Writeback => "writeback",
            TraceKind::Commit => "commit",
            TraceKind::ValuePredict => "vpredict",
            TraceKind::Reissue => "reissue",
            TraceKind::GvqHit => "gvq-hit",
        }
    }
}

/// One traced event. `arg`/`arg2` are kind-specific payloads (predicted
/// value and confidence for [`TraceKind::ValuePredict`], queue distance
/// for [`TraceKind::GvqHit`], zero otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulator cycle at which the event occurred.
    pub cycle: u64,
    /// Dynamic instruction sequence number.
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Kind-specific payload.
    pub arg: u64,
    /// Second kind-specific payload.
    pub arg2: u64,
}

impl TraceEvent {
    /// An event with zeroed payloads.
    pub fn new(cycle: u64, seq: u64, pc: u64, kind: TraceKind) -> Self {
        TraceEvent {
            cycle,
            seq,
            pc,
            kind,
            arg: 0,
            arg2: 0,
        }
    }

    /// Sets the first payload.
    pub fn arg(mut self, arg: u64) -> Self {
        self.arg = arg;
        self
    }

    /// Sets the second payload.
    pub fn arg2(mut self, arg2: u64) -> Self {
        self.arg2 = arg2;
        self
    }

    /// The event as a JSON object (for `--json` reports).
    pub fn to_json(&self) -> crate::json::JsonValue {
        let mut j = crate::json::JsonValue::object()
            .with("cycle", self.cycle)
            .with("seq", self.seq)
            .with("pc", self.pc)
            .with("kind", self.kind.label());
        match self.kind {
            TraceKind::ValuePredict => {
                j = j
                    .with("predicted", self.arg)
                    .with("confident", self.arg2 != 0);
            }
            TraceKind::GvqHit => {
                j = j.with("distance", self.arg);
            }
            _ => {}
        }
        j
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>8}  seq {:>8}  pc {:#06x}  {:<9}",
            self.cycle,
            self.seq,
            self.pc,
            self.kind.label()
        )?;
        match self.kind {
            TraceKind::ValuePredict => {
                write!(
                    f,
                    " value={} {}",
                    self.arg,
                    if self.arg2 != 0 {
                        "confident"
                    } else {
                        "low-conf"
                    }
                )
            }
            TraceKind::GvqHit => write!(f, " distance={}", self.arg),
            _ => Ok(()),
        }
    }
}

/// The ring-buffer tracer. Obtain the global instance with [`tracer()`].
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    ring: Mutex<Ring<TraceEvent>>,
}

impl Tracer {
    const fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            ring: Mutex::new(Ring::new(0)),
        }
    }

    /// Whether tracing is on. Instrumentation sites branch on this before
    /// constructing an event, so a disabled tracer costs one relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns tracing on with a ring of `capacity` events, discarding any
    /// previously recorded events.
    pub fn enable(&self, capacity: usize) {
        *self.ring.lock().unwrap() = Ring::new(capacity.max(1));
        self.on.store(true, Ordering::Relaxed);
    }

    /// Turns tracing off. Recorded events stay readable via
    /// [`last`](Self::last) until the next [`enable`](Self::enable).
    pub fn disable(&self) {
        self.on.store(false, Ordering::Relaxed);
    }

    /// Records an event if tracing is on.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if !self.enabled() {
            return;
        }
        self.ring.lock().unwrap().push(ev);
    }

    /// Total events recorded since the last [`enable`](Self::enable)
    /// (including ones the ring has since overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().unwrap().recorded()
    }

    /// The most recent `n` events, oldest first.
    pub fn last(&self, n: usize) -> Vec<TraceEvent> {
        let ring = self.ring.lock().unwrap();
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .copied()
            .collect()
    }
}

static TRACER: Tracer = Tracer::new();

/// The global tracer.
pub fn tracer() -> &'static Tracer {
    &TRACER
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests share the process-global tracer, so they run under one lock
    // to avoid interleaving enable/disable calls.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracer_drops_events() {
        let _g = TEST_LOCK.lock().unwrap();
        tracer().enable(4);
        tracer().disable();
        tracer().emit(TraceEvent::new(1, 1, 0, TraceKind::Issue));
        assert_eq!(tracer().recorded(), 0);
        assert!(tracer().last(10).is_empty());
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let _g = TEST_LOCK.lock().unwrap();
        tracer().enable(4);
        for i in 0..10u64 {
            tracer().emit(TraceEvent::new(i, i, 0x100 + i, TraceKind::Commit));
        }
        tracer().disable();
        assert_eq!(tracer().recorded(), 10);
        let tail = tracer().last(3);
        let cycles: Vec<u64> = tail.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
        // Asking for more than the capacity returns the whole ring.
        assert_eq!(tracer().last(100).len(), 4);
    }

    #[test]
    fn events_render_and_serialize() {
        let ev = TraceEvent::new(9, 2, 0x400, TraceKind::ValuePredict)
            .arg(42)
            .arg2(1);
        let line = ev.to_string();
        assert!(line.contains("vpredict"), "{line}");
        assert!(line.contains("value=42"), "{line}");
        assert!(line.contains("confident"), "{line}");
        let j = ev.to_json();
        assert_eq!(j.path("predicted").and_then(|v| v.as_f64()), Some(42.0));

        let hit = TraceEvent::new(9, 2, 0x400, TraceKind::GvqHit).arg(5);
        assert!(hit.to_string().contains("distance=5"));
    }
}
