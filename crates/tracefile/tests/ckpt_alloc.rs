//! A checkpoint record header alone cannot make the reader allocate its
//! declared length: `read_ckpt` reserves at most `MAX_RESERVE` (256 KiB) before a
//! payload's bytes arrive, so a record declaring `CKPT_MAX_PAYLOAD` in a
//! short file costs a bounded allocation, not 1 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tracefile::ckpt::CKPT_MAX_PAYLOAD;
use tracefile::record::MAX_RESERVE;
use tracefile::{read_ckpt, CkptDamage, CkptWriter};

/// Room for what else the read holds while the payload is pending: the
/// `BufReader`'s 8 KiB buffer and the path.
const SLACK: usize = 16 * 1024;

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
fn a_max_length_record_in_a_short_file_reserves_at_most_256_kib() {
    let mut path = std::env::temp_dir();
    path.push(format!("gdiff-ckpt-alloc-{}", std::process::id()));
    drop(CkptWriter::create(&path, 7).unwrap());
    // Record header: cell 0, worker 0, payload length CKPT_MAX_PAYLOAD,
    // crc 0; then ten payload bytes and EOF.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0; 8]);
    bytes.extend_from_slice(&CKPT_MAX_PAYLOAD.to_le_bytes());
    bytes.extend_from_slice(&[0; 4 + 10]);
    std::fs::write(&path, &bytes).unwrap();

    let (read, peak) = peak_during(|| read_ckpt(&path, 7));
    std::fs::remove_file(&path).ok();
    let read = read.unwrap();
    assert!(read.records.is_empty());
    assert_eq!(read.damage, Some(CkptDamage::TornTail { offset: 24 }));
    assert!(
        peak <= MAX_RESERVE + SLACK,
        "peak allocation {peak} bytes exceeds the {MAX_RESERVE}-byte reserve"
    );
}
