//! The **gDiff** global-stride value predictor — a from-scratch Rust
//! reproduction of Zhou, Flanagan and Conte, *"Detecting Global Stride
//! Locality in Value Streams"*, ISCA 2003.
//!
//! # What gDiff does
//!
//! Classical value predictors exploit locality in the **local** value
//! history: the sequence of values produced by prior executions of the
//! *same* static instruction. The paper shows that strong *stride*
//! locality also exists in the **global** value history — the sequence of
//! values produced by *all* dynamic instructions in execution order — and
//! builds a predictor for it:
//!
//! * a [`GlobalValueQueue`] (GVQ) holds the last *n* values produced by the
//!   dynamic instruction stream;
//! * a PC-indexed prediction table holds, per static instruction, the *n*
//!   differences between the instruction's last result and the *n* values
//!   that preceded it, plus a *selected distance* `k`;
//! * a prediction is `GVQ[k] + diff_k`; learning works by recomputing all
//!   *n* differences at completion and looking for a repeat.
//!
//! This catches correlations invisible to local predictors: register
//! spill/fill reloads, `x = y + constant` chains across instructions, and
//! near-constant strides between the addresses of sequentially allocated
//! heap objects.
//!
//! # The value-delay problem and the queue variants
//!
//! In a real out-of-order pipeline the correlated value may still be in
//! flight when the prediction must be made. This crate reproduces the
//! paper's full progression:
//!
//! * [`GDiffPredictor`] — the idealized profile-mode predictor (§3), with
//!   [`GDiffPredictor::with_delay`] modelling a fixed value delay *T*
//!   (Figure 10);
//! * [`SgvqPredictor`] — the **speculative** GVQ (§4): the queue is updated
//!   with execution-stage results in completion order, which shortens the
//!   delay but exposes the queue to execution-order variation;
//! * [`HgvqPredictor`] — the **hybrid** GVQ (§5, the paper's headline
//!   design): queue slots are claimed in dispatch order and pre-filled with
//!   a local-stride prediction, then patched with the real result at
//!   write-back. This removes the variation, hides the delay, and lets one
//!   structure exploit local *and* global stride locality.
//!
//! # Hot path
//!
//! [`GDiffCore`] has one predict and one update. A prediction reads a
//! single queue slot, the selected distance, through a closure
//! ([`GDiffCore::predict_with_tap`]). A completion borrows the whole queue
//! window in place — lanes and an availability mask, nothing copied — and
//! runs a lane-parallel kernel over it ([`GlobalValueQueue::window`] /
//! [`GDiffCore::update_from_window`]). The profile loop, whose queue does
//! not move between a producer's prediction and its training, fuses the
//! two into one table probe over one window
//! ([`GDiffCore::step_from_window`], behind [`GDiffPredictor`]'s
//! `ValuePredictor::step`). [`reference::ReferenceCore`] keeps the scalar
//! closure formulation as the equivalence-test oracle.
//!
//! # Quick start
//!
//! ```
//! use gdiff::GDiffPredictor;
//! use predictors::{Capacity, ValuePredictor};
//!
//! // Instruction B always produces A's value plus 4, with two unrelated
//! // value-producing instructions in between (the paper's Figure 6).
//! let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
//! let mut correct = 0;
//! for (i, a_val) in [1u64, 8, 3, 2, 11, 6].into_iter().enumerate() {
//!     p.update(0xa0, a_val);              // instruction a: hard to predict
//!     p.update(0xc0, 77);                 // unrelated
//!     p.update(0xd0, 1000 + i as u64);    // unrelated
//!     if p.predict(0xb0) == Some(a_val + 4) {
//!         correct += 1;
//!     }
//!     p.update(0xb0, a_val + 4);          // instruction b = a + 4
//! }
//! // gDiff learns the distance-3 stride after two productions (§3).
//! assert!(correct >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod hybrid;
mod predictor;
mod queue;
pub mod reference;
mod speculative;
mod table;

pub use hybrid::{HgvqPredictor, HgvqToken};
pub use predictor::GDiffPredictor;
pub use queue::{GlobalValueQueue, SlotId};
pub use speculative::{SgvqPredictor, SgvqToken};
pub use table::{GDiffCore, GDiffEntry, MAX_ORDER};

#[cfg(test)]
mod tests {
    use super::*;
    use predictors::{Capacity, ValuePredictor};

    /// The worked example of the paper's Figures 6 and 7: instruction `a`
    /// produces (1, 8, 3, …); `b` produces `a + 4`; one uncorrelated value
    /// producer sits between them. gDiff must learn distance 2 after two
    /// productions of `b` and then predict `b` from `a`'s latest value.
    #[test]
    fn paper_figure7_walkthrough() {
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        // Production 1: b = 5 (a = 1).
        p.update(0xa0, 1);
        p.update(0xc0, 900); // the in-between instruction
        p.update(0xb0, 5);
        // Production 2: b = 12 (a = 8): diff at distance 2 is 4 again.
        p.update(0xa0, 8);
        p.update(0xc0, 901);
        p.update(0xb0, 12);
        // Production 3: a = 3 -> predict b = 3 + 4 = 7 (Figure 7c).
        p.update(0xa0, 3);
        p.update(0xc0, 902);
        assert_eq!(p.predict(0xb0), Some(7));
    }
}
