//! The Figure 8 profile loop allocates nothing once warm.
//!
//! Each predictor the profile studies compare — gDiff at order 8 and 32,
//! local stride and DFCM — is warmed up on a fixed producer stream (every
//! PC claims its table entry, every scratch buffer reaches its size), then
//! driven through 10 000 further predict/update steps with the heap
//! watched. Any allocation on that path is a per-producer cost the
//! inline-array designs (`MAX_ORDER` differences, `MAX_CONTEXT` contexts,
//! the mirrored queue window) exist to avoid.
//!
//! The gDiff q8 loop is also checked with every live telemetry tap armed
//! (the `--timeline --live-metrics` configuration): the taps sit at cell
//! and phase granularity, so one leaking into the per-producer path shows
//! up here as an allocation.

use gdiff::GDiffPredictor;
use predictors::{Capacity, DfcmPredictor, StridePredictor, ValuePredictor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// System allocator wrapper counting the allocations made by the calling
/// thread, so tests running in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 20_000;
const MEASURED: usize = 10_000;

/// A deterministic producer stream over 32 PCs: per-PC strides, values
/// correlated with the previous producer, and noise.
fn stream(len: usize) -> Vec<(u64, u64)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut prev = 0u64;
    (0..len as u64)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pc = 0x1000 + (i % 32) * 4;
            let value = match i % 4 {
                0 => i / 32 * 8,
                1 => prev.wrapping_add(24),
                2 => (i / 32) % 5,
                _ => state >> 11,
            };
            prev = value;
            (pc, value)
        })
        .collect()
}

/// Warms `p` up on `WARMUP` predict/update steps, then returns the
/// allocations made by `MEASURED` further steps.
fn measured_allocations(p: &mut dyn ValuePredictor) -> u64 {
    let insts = stream(WARMUP + MEASURED);
    let (warm, measured) = insts.split_at(WARMUP);
    for &(pc, value) in warm {
        let _ = p.predict(pc);
        p.update(pc, value);
    }
    let before = ALLOCATIONS.with(Cell::get);
    let mut hits = 0u64;
    for &(pc, value) in measured {
        hits += u64::from(p.predict(pc) == Some(value));
        p.update(pc, value);
    }
    let allocs = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        hits > 0,
        "{}: the stream must exercise predictions",
        p.name()
    );
    allocs
}

#[test]
fn gdiff_q8_steps_do_not_allocate() {
    let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
    assert_eq!(measured_allocations(&mut p), 0);
}

#[test]
fn gdiff_q8_steps_do_not_allocate_with_telemetry_armed() {
    // The sampler's hour-long interval keeps its ticks out of the window;
    // its thread's allocations are not counted here in any case.
    obs::timeline::enable(1024);
    let sampler = obs::Sampler::start(
        obs::SharedRegistry::new(),
        Duration::from_secs(3600),
        16,
        None,
    );
    let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
    let allocs = measured_allocations(&mut p);
    sampler.stop();
    obs::timeline::disable();
    assert_eq!(allocs, 0);
}

#[test]
fn gdiff_q32_steps_do_not_allocate() {
    let mut p = GDiffPredictor::new(Capacity::Unbounded, 32);
    assert_eq!(measured_allocations(&mut p), 0);
}

#[test]
fn stride_steps_do_not_allocate() {
    let mut p = StridePredictor::new(Capacity::Unbounded);
    assert_eq!(measured_allocations(&mut p), 0);
}

#[test]
fn dfcm_steps_do_not_allocate() {
    let mut p = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
    assert_eq!(measured_allocations(&mut p), 0);
}
