//! Hardware prefetching driven by load-address prediction — the extension
//! the paper sketches as future work (§6: *"This motivates us to extend
//! gdiff for memory prefetch"*, §8).
//!
//! A [`Prefetcher`] is consulted when a load dispatches; if it supplies a
//! confident address, the simulator starts the cache fill immediately, so
//! by the time the load issues (address generated, operands ready) part or
//! all of the miss latency has been hidden. Prediction training happens at
//! address generation, exactly like the §6 measurement setup.

use gdiff::{HgvqPredictor, HgvqToken};
use predictors::{Capacity, GatedPredictor, StridePredictor};
use std::collections::HashMap;

/// A load-address prefetch engine driven by the pipeline.
///
/// [`predict`](Self::predict) is called at each load's dispatch and may
/// return an address to prefetch; [`train`](Self::train) is called at the
/// load's address generation with the true address. Calls are correlated
/// by `seq` because several instances of one load can be in flight.
pub trait Prefetcher: std::fmt::Debug {
    /// The address to prefetch for the load at `pc`, if the engine is
    /// confident enough to spend the bandwidth.
    fn predict(&mut self, seq: u64, pc: u64) -> Option<u64>;

    /// Training at address generation.
    fn train(&mut self, seq: u64, pc: u64, addr: u64);

    /// Report name.
    fn name(&self) -> &'static str;
}

/// Next-line prefetching: on every load, fetch the line after the load's
/// *previous* address — the classic baseline.
#[derive(Debug)]
pub struct NextLinePrefetcher {
    last: predictors::PcTable<Option<u64>>,
    line_bytes: u64,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher for the given line size.
    pub fn new(line_bytes: u64) -> Self {
        NextLinePrefetcher {
            last: predictors::PcTable::new(Capacity::Entries(4096)),
            line_bytes,
        }
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn predict(&mut self, _seq: u64, pc: u64) -> Option<u64> {
        // Wrapping: a load within one line of the top of the address
        // space must not panic (debug) where release builds wrap.
        (*self.last.entry_shared(pc)).map(|a| a.wrapping_add(self.line_bytes))
    }

    fn train(&mut self, _seq: u64, pc: u64, addr: u64) {
        *self.last.entry_shared(pc) = Some(addr);
    }

    fn name(&self) -> &'static str {
        "next-line"
    }
}

/// Stride-directed prefetching: a confidence-gated local stride predictor
/// over each load's address stream.
#[derive(Debug)]
pub struct StridePrefetcher {
    gated: GatedPredictor<StridePredictor>,
    pending: HashMap<u64, Option<u64>>,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the §6 table size (4K entries).
    pub fn new() -> Self {
        StridePrefetcher {
            gated: GatedPredictor::with_defaults(
                StridePredictor::new(Capacity::Entries(4096)),
                Capacity::Entries(4096),
            ),
            pending: HashMap::new(),
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for StridePrefetcher {
    fn predict(&mut self, seq: u64, pc: u64) -> Option<u64> {
        let g = self.gated.predict(pc);
        self.pending.insert(seq, g.map(|g| g.value));
        g.filter(|g| g.confident).map(|g| g.value)
    }

    fn train(&mut self, seq: u64, pc: u64, addr: u64) {
        let predicted = self.pending.remove(&seq).flatten();
        self.gated.resolve(pc, predicted, addr);
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

/// gDiff-directed prefetching: the §5 hybrid global value queue over the
/// load-address stream (only load addresses enter the queue), with the
/// paper's 3-bit confidence gating.
///
/// This is the future-work design §6 motivates: global stride locality in
/// addresses — e.g. the near-constant offset between a just-loaded `->next`
/// pointer and the upcoming `->string` access — covers loads whose own
/// address streams are locally irregular.
#[derive(Debug)]
pub struct GDiffPrefetcher {
    inner: HgvqPredictor,
    pending: HashMap<u64, HgvqToken>,
}

impl GDiffPrefetcher {
    /// Creates a gDiff prefetcher with the §6 configuration (4K tables,
    /// queue order 32).
    pub fn new() -> Self {
        GDiffPrefetcher {
            inner: HgvqPredictor::with_stride_filler(
                Capacity::Entries(4096),
                32,
                Capacity::Entries(4096),
            ),
            pending: HashMap::new(),
        }
    }
}

impl Default for GDiffPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for GDiffPrefetcher {
    fn predict(&mut self, seq: u64, pc: u64) -> Option<u64> {
        let token = self.inner.dispatch(pc);
        let out = token.prediction.filter(|g| g.confident).map(|g| g.value);
        self.pending.insert(seq, token);
        out
    }

    fn train(&mut self, seq: u64, pc: u64, addr: u64) {
        if let Some(token) = self.pending.remove(&seq) {
            self.inner.writeback(pc, &token, addr);
        }
    }

    fn name(&self) -> &'static str {
        "gdiff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_prefetches_sequentially() {
        let mut p = NextLinePrefetcher::new(64);
        assert_eq!(p.predict(0, 0x40), None);
        p.train(0, 0x40, 0x1000);
        assert_eq!(p.predict(1, 0x40), Some(0x1040));
    }

    #[test]
    fn next_line_wraps_at_the_top_of_the_address_space() {
        let mut p = NextLinePrefetcher::new(64);
        p.train(0, 0x40, u64::MAX - 10);
        assert_eq!(p.predict(1, 0x40), Some(53));
    }

    #[test]
    fn stride_prefetcher_gains_confidence_then_prefetches() {
        let mut p = StridePrefetcher::new();
        let mut fired = None;
        for i in 0..10u64 {
            if let Some(a) = p.predict(i, 0x40) {
                fired.get_or_insert((i, a));
            }
            p.train(i, 0x40, 0x1000 + i * 64);
        }
        let (i, a) = fired.expect("must eventually prefetch");
        assert_eq!(
            a,
            0x1000 + i * 64,
            "prefetch address must be the next stride"
        );
    }

    #[test]
    fn gdiff_prefetcher_catches_cross_load_offsets() {
        // Load A's address jitters; load B's address is always A's + 8.
        let mut p = GDiffPrefetcher::new();
        let mut hits = 0;
        let mut total = 0;
        for i in 0..200u64 {
            let a_addr = 0x1000 + i * 40 + (i % 3) * 808; // multi-stride
            let seq = i * 2;
            let _ = p.predict(seq, 0xa0);
            p.train(seq, 0xa0, a_addr);
            total += 1;
            if p.predict(seq + 1, 0xb0) == Some(a_addr + 8) {
                hits += 1;
            }
            p.train(seq + 1, 0xb0, a_addr + 8);
        }
        assert!(
            hits * 2 > total,
            "gdiff must catch the offset: {hits}/{total}"
        );
    }

    #[test]
    fn pending_maps_do_not_leak() {
        let mut p = GDiffPrefetcher::new();
        for i in 0..100u64 {
            let _ = p.predict(i, 0x40);
            p.train(i, 0x40, i * 8);
        }
        assert!(p.pending.is_empty());
    }
}
