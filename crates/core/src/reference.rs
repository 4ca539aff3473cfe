//! The retained scalar reference implementation of the gDiff mechanism.
//!
//! [`ReferenceCore`] is the paper's §3 update/predict algorithm written as
//! the plain `1..=order` scalar scan the vectorized
//! [`GDiffCore`](crate::GDiffCore) replaced: per-distance closure reads, a
//! two-pass match-then-store over a growable diff vector, and explicit
//! hysteresis on the selected distance. It shares the
//! [`PcTable`] substrate so bounded-table aliasing behaves identically.
//!
//! It exists as the **equivalence oracle**: the proptest suite drives
//! random update/predict interleavings (partial availability, wrapping
//! diffs, aliasing tables) through both cores and asserts bit-identical
//! distances, stored differences, and predictions. It is deliberately kept
//! naive — allocation per entry, one division-bearing closure call per
//! distance — so any semantic drift in the hot path shows up as a diff
//! against an independent formulation, not against itself.

use predictors::{Capacity, PcTable};

/// One scalar reference-table entry: a growable diff vector plus the
/// selected distance.
#[derive(Debug, Clone, Default)]
struct RefEntry {
    /// `diffs[i]` is the difference at distance `i + 1`.
    diffs: Vec<i64>,
    /// Whether the entry holds at least one observation.
    seen: bool,
    /// The selected distance (1-based), once a repeat has been found.
    distance: Option<u16>,
}

/// The scalar reference formulation of the order-`n` gDiff mechanism.
///
/// Semantically interchangeable with [`GDiffCore`](crate::GDiffCore)
/// (including bounded-table aliasing), but implemented as the naive scalar
/// scan. Use it in tests only; the vectorized core is the production path.
#[derive(Debug, Clone)]
pub struct ReferenceCore {
    table: PcTable<RefEntry>,
    order: usize,
}

impl ReferenceCore {
    /// Creates a reference core of the given table capacity and order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero (no `MAX_ORDER` cap: the reference stores
    /// diffs in a `Vec`).
    pub fn new(capacity: Capacity, order: usize) -> Self {
        assert!(order > 0, "gdiff order must be nonzero");
        ReferenceCore {
            table: PcTable::new(capacity),
            order,
        }
    }

    /// The queue order `n` this core was built for.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Scalar prediction, value only: [`Self::predict_with_tap`]'s `.0`.
    pub fn predict_with(
        &mut self,
        pc: u64,
        value_at: impl Fn(usize) -> Option<u64>,
    ) -> Option<u64> {
        self.predict_with_tap(pc, value_at).0
    }

    /// Scalar prediction with provenance: the counterpart of
    /// [`GDiffCore::predict_with_tap`](crate::GDiffCore::predict_with_tap).
    pub fn predict_with_tap(
        &mut self,
        pc: u64,
        value_at: impl Fn(usize) -> Option<u64>,
    ) -> (Option<u64>, Option<(u16, i64)>) {
        let e = self.table.entry_shared(pc);
        let Some(k) = e.distance else {
            return (None, None);
        };
        let Some(&diff) = e.diffs.get(usize::from(k) - 1) else {
            return (None, None);
        };
        let value = value_at(usize::from(k)).map(|base| base.wrapping_add(diff as u64));
        (value, Some((k, diff)))
    }

    /// Scalar training: the pre-vectorization `1..=order` scan, verbatim —
    /// the counterpart of
    /// [`GDiffCore::update_from_window`](crate::GDiffCore::update_from_window).
    pub fn update_with(&mut self, pc: u64, actual: u64, value_at: impl Fn(usize) -> Option<u64>) {
        let order = self.order;
        let mut calc = vec![0i64; order];
        let mut avail = vec![false; order];
        for k in 1..=order {
            if let Some(v) = value_at(k) {
                calc[k - 1] = actual.wrapping_sub(v) as i64;
                avail[k - 1] = true;
            }
        }
        let e = self.table.entry_shared(pc);
        e.diffs.resize(order, 0);
        if e.seen {
            let matches = |k: usize| -> bool { avail[k - 1] && calc[k - 1] == e.diffs[k - 1] };
            let chosen = match e.distance {
                Some(k) if usize::from(k) <= order && matches(usize::from(k)) => {
                    Some(usize::from(k))
                }
                _ => (1..=order).find(|&k| matches(k)),
            };
            if let Some(k) = chosen {
                e.distance = Some(k as u16);
            }
        }
        for (i, &d) in calc.iter().enumerate() {
            if avail[i] {
                e.diffs[i] = d;
            }
        }
        e.seen = true;
    }

    /// The selected distance for `pc`, if one has been learned.
    pub fn distance(&self, pc: u64) -> Option<usize> {
        self.table
            .peek(pc)
            .and_then(|e| e.distance)
            .map(usize::from)
    }

    /// The stored difference at `distance` (1-based) for `pc`, if recorded
    /// — mirroring [`GDiffEntry::diff`](crate::GDiffEntry::diff).
    pub fn diff(&self, pc: u64, distance: usize) -> Option<i64> {
        let e = self.table.peek(pc)?;
        if !e.seen || distance == 0 || distance > self.order {
            return None;
        }
        e.diffs.get(distance - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(values: &[u64]) -> impl Fn(usize) -> Option<u64> + '_ {
        move |k| values.get(k - 1).copied()
    }

    #[test]
    fn reference_learns_distance_after_two_productions() {
        let mut c = ReferenceCore::new(Capacity::Unbounded, 4);
        c.update_with(0, 5, q(&[9, 1, 7]));
        assert_eq!(c.distance(0), None);
        c.update_with(0, 12, q(&[3, 8, 2]));
        assert_eq!(c.distance(0), Some(2));
        assert_eq!(c.diff(0, 2), Some(4));
        assert_eq!(c.predict_with(0, q(&[6, 3, 1])), Some(7));
    }

    #[test]
    fn reference_handles_wrapping() {
        let mut c = ReferenceCore::new(Capacity::Unbounded, 1);
        c.update_with(0, 5, q(&[u64::MAX]));
        c.update_with(0, 7, q(&[1]));
        assert_eq!(c.distance(0), Some(1));
        assert_eq!(c.predict_with(0, q(&[10])), Some(16));
    }
}
