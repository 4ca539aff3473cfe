//! Directed micro-trace tests: hand-built instruction sequences with
//! known cycle-level behaviour, pinning the simulator's timing semantics.

use pipeline::{
    HgvqEngine, LocalEngine, NoVp, OracleEngine, PipelineConfig, Simulator, StridePrefetcher,
    VpEngine,
};
use workloads::DynInst;

fn run_trace(trace: Vec<DynInst>, engine: Box<dyn VpEngine>) -> pipeline::SimStats {
    Simulator::new(PipelineConfig::r10k(), engine).run(trace, 0, u64::MAX)
}

/// `n` copies of `block`, PCs preserved (a loop without the branch).
fn repeat(block: &[DynInst], n: usize) -> Vec<DynInst> {
    block
        .iter()
        .cycle()
        .take(block.len() * n)
        .copied()
        .collect()
}

#[test]
fn independent_alus_sustain_full_width() {
    // Four independent single-cycle ops per "iteration": IPC must approach
    // the machine width.
    let block: Vec<DynInst> = (0..4)
        .map(|i| DynInst::alu(0x400 + i * 4, i as u8, [None, None], i))
        .collect();
    let stats = run_trace(repeat(&block, 2000), Box::new(NoVp));
    assert!(stats.ipc() > 3.5, "ipc {}", stats.ipc());
}

#[test]
fn serial_chain_runs_at_one_ipc() {
    // Every op reads the register the previous op wrote: 1 op/cycle max.
    let block = vec![DynInst::alu(0x400, 1, [Some(1), None], 7)];
    let stats = run_trace(repeat(&block, 4000), Box::new(NoVp));
    assert!(stats.ipc() < 1.1, "ipc {}", stats.ipc());
    assert!(stats.ipc() > 0.8, "ipc {}", stats.ipc());
}

#[test]
fn value_prediction_breaks_a_serial_chain() {
    // The chain's values are constant: trivially predictable. With the
    // oracle (or a warmed local stride), dependents issue immediately and
    // IPC rises well above 1.
    let block = vec![DynInst::alu(0x400, 1, [Some(1), None], 7)];
    let base = run_trace(repeat(&block, 4000), Box::new(NoVp));
    let oracle = run_trace(repeat(&block, 4000), Box::new(OracleEngine));
    let local = run_trace(repeat(&block, 4000), Box::new(LocalEngine::stride_8k()));
    assert!(base.ipc() < 1.1);
    assert!(oracle.ipc() > 3.0, "oracle ipc {}", oracle.ipc());
    assert!(local.ipc() > 2.0, "local stride ipc {}", local.ipc());
    assert_eq!(oracle.reissues, 0);
}

#[test]
fn wrong_predictions_cause_reissue_but_not_corruption() {
    // A chain whose value changes unpredictably every step: a last-value
    // style predictor speculates wrong over and over. Everything must
    // still retire, with reissues charged.
    let mut trace = Vec::new();
    let mut v = 1u64;
    for _ in 0..3000 {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        trace.push(DynInst::alu(0x400, 1, [Some(1), None], v));
        trace.push(DynInst::alu(0x404, 2, [Some(1), None], v ^ 0xff));
    }
    let n = trace.len() as u64;
    let stats = run_trace(trace, Box::new(LocalEngine::stride_8k()));
    assert_eq!(stats.retired, n);
    // Low accuracy predictions may still fire early in warmup; any
    // speculation that happened must be repaired via reissue.
    assert!(stats.vp.gated_accuracy() < 0.6 || stats.vp.coverage() < 0.1);
}

#[test]
fn high_register_numbers_simulate_like_low_ones() {
    // Trace decoders accept any u8 register name. A dependence chain over
    // registers 100, 200 and 255 must run to completion and time exactly
    // like the same chain renamed onto registers 1-3.
    let chain = |[a, b, c]: [u8; 3]| -> Vec<DynInst> {
        let block = [
            DynInst::alu(0x400, b, [Some(a), None], 5),
            DynInst::mul(0x404, c, [Some(b), Some(a)], 25),
            DynInst::alu(0x408, a, [Some(c), None], 30),
            DynInst::load(0x40c, b, c, 0x8000, 9),
        ];
        repeat(&block, 500)
    };
    let high = run_trace(chain([100, 200, 255]), Box::new(LocalEngine::stride_8k()));
    let low = run_trace(chain([1, 2, 3]), Box::new(LocalEngine::stride_8k()));
    assert_eq!(high.retired, 2000);
    assert_eq!(high.to_json().to_json(), low.to_json().to_json());
}

#[test]
fn load_misses_throttle_a_pointer_chase() {
    // A serialized chase over a large footprint: every load misses and
    // depends on the previous load's value.
    let mut trace = Vec::new();
    for i in 0..3000u64 {
        let addr = 0x1000_0000 + (i * 4096) % 0x200_0000; // > cache, strided by pages
        trace.push(DynInst::load(0x400, 1, 1, addr, addr + 4096));
    }
    let stats = run_trace(trace, Box::new(NoVp));
    // Each load costs ~1 (agen) + 2 (hit path) + 14 (miss) serialized.
    assert!(stats.ipc() < 0.1, "ipc {}", stats.ipc());
    assert!(
        stats.dcache_miss_rate > 0.9,
        "miss rate {}",
        stats.dcache_miss_rate
    );
}

#[test]
fn predicting_a_chase_overlaps_the_misses() {
    // Same chase; the oracle supplies each pointer at dispatch, so the
    // misses overlap (bounded by ROB and ports, not the chain).
    let mut trace = Vec::new();
    for i in 0..3000u64 {
        let addr = 0x1000_0000 + (i * 4096) % 0x200_0000;
        trace.push(DynInst::load(0x400, 1, 1, addr, addr + 4096));
    }
    let base = run_trace(trace.clone(), Box::new(NoVp));
    let oracle = run_trace(trace, Box::new(OracleEngine));
    assert!(
        oracle.cycles * 3 < base.cycles,
        "oracle {} vs base {} cycles",
        oracle.cycles,
        base.cycles
    );
}

#[test]
fn mispredicted_branches_cost_fetch_stalls() {
    // Alternating-direction branch with a short history predictor warmed:
    // gshare learns alternation, so compare against a *random* branch.
    let easy: Vec<DynInst> = (0..4000)
        .map(|_| DynInst::branch(0x400, 1, true, 0x500))
        .collect();
    let mut v = 1u64;
    let hard: Vec<DynInst> = (0..4000)
        .map(|_| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            DynInst::branch(0x400, 1, (v >> 33) & 1 == 0, 0x500)
        })
        .collect();
    let easy_stats = run_trace(easy, Box::new(NoVp));
    let hard_stats = run_trace(hard, Box::new(NoVp));
    assert!(easy_stats.branch_mispredict_rate < 0.05);
    assert!(hard_stats.branch_mispredict_rate > 0.3);
    assert!(
        hard_stats.cycles > easy_stats.cycles * 2,
        "mispredicts must cost cycles: {} vs {}",
        hard_stats.cycles,
        easy_stats.cycles
    );
}

#[test]
fn prefetching_hides_miss_latency_on_a_strided_stream() {
    // Strided loads over a huge array: all miss, but the stride prefetcher
    // can start each fill at dispatch.
    let mut trace = Vec::new();
    for i in 0..4000u64 {
        // Independent loads (address from a ready register).
        trace.push(DynInst::load(
            0x400,
            (i % 8) as u8,
            30,
            0x1000_0000 + i * 4096,
            i,
        ));
        trace.push(DynInst::alu(
            0x404,
            9,
            [Some((i % 8) as u8), None],
            i.wrapping_mul(3),
        ));
    }
    let base = Simulator::new(PipelineConfig::r10k(), Box::new(NoVp)).run(
        trace.iter().copied(),
        0,
        u64::MAX,
    );
    let pf = Simulator::new(PipelineConfig::r10k(), Box::new(NoVp))
        .with_prefetcher(Box::new(StridePrefetcher::new()))
        .run(trace.iter().copied(), 0, u64::MAX);
    assert!(
        pf.prefetches_issued > 1000,
        "issued {}",
        pf.prefetches_issued
    );
    assert!(
        pf.prefetches_useful > 500,
        "useful {}",
        pf.prefetches_useful
    );
    assert!(
        pf.cycles < base.cycles,
        "prefetch must help: {} vs {}",
        pf.cycles,
        base.cycles
    );
}

#[test]
fn hgvq_engine_covers_a_global_pair_in_pipeline() {
    // a (locally strided) then b = a + 8 immediately behind, inside a loop
    // body long enough that one iteration outlives the dispatch-to-WB
    // latency (so a's local-stride filler is fresh — the §5 bridge). The
    // rest of the body is constant-valued filler.
    let mut trace = Vec::new();
    for i in 0..1000u64 {
        trace.push(DynInst::mul(0x400, 1, [None, None], i * 8)); // a
        trace.push(DynInst::alu(0x404, 2, [Some(1), None], i * 8 + 8)); // b = a + 8
        trace.push(DynInst::alu(0x408, 3, [Some(2), None], i * 8 + 9)); // consumer of b
        for j in 0..77u64 {
            trace.push(DynInst::alu(
                0x500 + j * 4,
                (4 + j % 8) as u8,
                [None, None],
                7 + j,
            ));
        }
    }
    let stats = run_trace(trace, Box::new(HgvqEngine::paper_default()));
    assert!(
        stats.vp.coverage() > 0.5,
        "coverage {}",
        stats.vp.coverage()
    );
    assert!(
        stats.vp.gated_accuracy() > 0.9,
        "accuracy {}",
        stats.vp.gated_accuracy()
    );
}

#[test]
fn retirement_is_exact_at_trace_end() {
    let block = vec![
        DynInst::alu(0x400, 1, [None, None], 1),
        DynInst::store(0x404, 1, 30, 0x1000_0000),
        DynInst::branch(0x408, 1, true, 0x400),
    ];
    let trace = repeat(&block, 100);
    let n = trace.len() as u64;
    for engine in [
        Box::new(NoVp) as Box<dyn VpEngine>,
        Box::new(OracleEngine),
        Box::new(HgvqEngine::paper_default()),
    ] {
        let stats = run_trace(trace.clone(), engine);
        assert_eq!(stats.retired, n);
        assert_eq!(stats.value_producing, 100);
        assert_eq!(stats.loads, 0);
    }
}
