//! Micro-benchmarks of the global value queue and the split-phase
//! (dispatch/write-back) queue disciplines. The gDiff table update by
//! queue order lives in `update_path.rs` (`gdiff_update_batched`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gdiff::{GlobalValueQueue, HgvqPredictor, SgvqPredictor};
use predictors::Capacity;

fn bench_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("gvq_ops");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push", |b| {
        let mut q = GlobalValueQueue::new(32);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            q.push(black_box(i))
        })
    });
    g.bench_function("back", |b| {
        let mut q = GlobalValueQueue::new(32);
        for i in 0..64 {
            q.push(i);
        }
        b.iter(|| q.back(black_box(17)))
    });
    g.bench_function("reserve_patch", |b| {
        let mut q = GlobalValueQueue::new(32);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let s = q.push_speculative(black_box(i));
            q.patch(s, i + 1)
        })
    });
    g.finish();
}

fn bench_split_phase(c: &mut Criterion) {
    let mut g = c.benchmark_group("split_phase_dispatch_writeback");
    g.throughput(Throughput::Elements(1));
    g.bench_function("hgvq", |b| {
        let mut p =
            HgvqPredictor::with_stride_filler(Capacity::Entries(8192), 32, Capacity::Entries(8192));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let t = p.dispatch(black_box(0x80));
            p.writeback(0x80, &t, i * 4);
        })
    });
    g.bench_function("sgvq", |b| {
        let mut p = SgvqPredictor::new(Capacity::Entries(8192), 32, Capacity::Entries(8192));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let t = p.dispatch(black_box(0x80));
            p.complete(0x80, &t, i * 4);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_queue_ops, bench_split_phase);
criterion_main!(benches);
