//! A frame header alone cannot make the reader allocate its declared
//! length: `read_frame` reserves at most `MAX_FRAME_RESERVE` bytes before
//! the payload arrives, so a 16-byte header declaring `MAX_FRAME_LEN`
//! followed by EOF costs a bounded allocation, not 16 MiB.

use serve::frame::{self, FrameError, FRAME_MAGIC, MAX_FRAME_LEN, MAX_FRAME_RESERVE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper tracking the calling thread's live heap bytes
/// and their high-water mark, so tests running in parallel do not see
/// each other's.
struct PeakAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    // `try_with`: the allocator may run while the thread's locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the heap high-water mark it
/// reached above the bytes live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

#[test]
fn a_max_length_header_then_eof_allocates_at_most_the_reserve() {
    let mut hdr = [0u8; frame::FRAME_HEADER_LEN];
    hdr[0..4].copy_from_slice(&FRAME_MAGIC);
    hdr[4] = frame::CHUNK;
    hdr[8..12].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    let (result, peak) = peak_during(|| frame::read_frame(&mut &hdr[..]));
    assert!(
        matches!(result, Err(FrameError::Truncated { what: "payload" })),
        "{result:?}"
    );
    assert!(
        peak <= MAX_FRAME_RESERVE,
        "peak allocation {peak} bytes exceeds the {MAX_FRAME_RESERVE}-byte reserve"
    );
}
