//! Trace-driven out-of-order superscalar timing simulator for the gDiff
//! reproduction (the paper's modified SimpleScalar substitute).
//!
//! The crate models the Table 1 machine: a 4-wide out-of-order core with a
//! 64-entry reorder buffer, gshare+BTB front end, 64 KB 4-way I/D caches,
//! MIPS R10000 latencies, and confidence-gated value speculation with
//! selective reissue. Traces come from the [`workloads`] crate; value
//! prediction engines adapt the [`gdiff`] and [`predictors`] crates through
//! the [`VpEngine`] trait.
//!
//! # Example
//!
//! ```
//! use pipeline::{HgvqEngine, NoVp, PipelineConfig, Simulator};
//! use workloads::Benchmark;
//!
//! let run = |engine| {
//!     Simulator::new(PipelineConfig::r10k(), engine)
//!         .run(Benchmark::Parser.build(42).take(40_000), 5_000, 25_000)
//! };
//! let base = run(Box::new(NoVp));
//! let gdiff = run(Box::new(HgvqEngine::paper_default()));
//! assert!(gdiff.ipc() >= base.ipc() * 0.95); // value speculation helps (or at least does no harm)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod branch;
mod cache;
mod config;
mod prefetch;
mod sim;
mod stats;
mod vp;

pub use branch::BranchPredictor;
pub use cache::Cache;
pub use config::{CacheConfig, PipelineConfig, MAX_ROB_ENTRIES};
pub use prefetch::{GDiffPrefetcher, NextLinePrefetcher, Prefetcher, StridePrefetcher};
pub use sim::{NullObserver, SimObserver, Simulator};
pub use stats::SimStats;
pub use vp::{
    HgvqEngine, LocalEngine, NoVp, OracleEngine, SgvqEngine, TokenProvenance, VpEngine, VpToken,
};
