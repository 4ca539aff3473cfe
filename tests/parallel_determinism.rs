//! The scheduler's core guarantee, tested end to end through the binary:
//! `harness all` produces byte-identical tables and an identical
//! `experiments` report section for every worker count.
//!
//! Only wall-clock artifacts (stderr timing lines, the report's `timings`
//! and `scheduler` sections) may differ between worker counts.
//!
//! The same guarantee extends to the sweep engine: `harness sweep`
//! produces byte-identical stdout and `--out` report for every `--jobs`
//! value — including when the sweep is killed mid-run and resumed at a
//! different thread count.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdiff-par-test-{}-{name}", std::process::id()));
    p
}

/// Runs `harness all` at a small scale with `jobs` workers; returns
/// (stdout bytes, the report's `experiments` subtree as JSON text).
fn run_all(jobs: usize) -> (Vec<u8>, String) {
    let json = tmp_path(&format!("j{jobs}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "all",
            "--scale",
            "0.01",
            "--seed",
            "7",
            "--jobs",
            &jobs.to_string(),
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("harness runs");
    assert!(
        out.status.success(),
        "jobs={jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    let parsed = obs::JsonValue::parse(&report).expect("report parses");
    let experiments = parsed.get("experiments").expect("experiments section");
    // Sanity: the scheduler section reflects the requested worker count.
    let sched_jobs = parsed
        .path("scheduler.jobs")
        .and_then(|v| v.as_f64())
        .expect("scheduler.jobs");
    assert_eq!(sched_jobs as usize, jobs);
    (out.stdout, experiments.to_json())
}

/// A 1080-cell grid (4 orders x 3 depths x 3 thresholds x 3 delays x 10
/// benchmarks), sized to stay fast while exercising real fan-out.
const GRID: &str =
    "order=2,4,8,16;depth=0,1024,8192;threshold=0,2,4;delay=0,1,2;bench=all;warmup=0;measure=1000";

/// Runs `harness sweep` over `GRID` into `dir`; returns (stdout, report).
fn run_sweep(dir: &Path, jobs: usize) -> (Vec<u8>, String) {
    let json = dir.with_extension("json");
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["sweep", "--grid", GRID, "--pareto"])
        .args(["--jobs", &jobs.to_string(), "--out"])
        .arg(&json)
        .arg("--ckpt")
        .arg(dir)
        .output()
        .expect("harness sweep runs");
    assert!(
        out.status.success(),
        "sweep jobs={jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    (out.stdout, report)
}

/// The intact checkpoint records in `dir`'s segments (0 before the grid
/// is pinned or a segment header is written).
fn ckpt_records(dir: &Path) -> usize {
    let Ok(spec) = std::fs::read_to_string(dir.join("grid.spec")) else {
        return 0;
    };
    let hash = tracefile::crc32::crc32(spec.as_bytes());
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .filter_map(|p| tracefile::read_ckpt(&p, hash).ok())
        .map(|read| read.records.len())
        .sum()
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let d1 = tmp_path("sweep-j1");
    let d4 = tmp_path("sweep-j4");
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
    let (stdout1, report1) = run_sweep(&d1, 1);
    let (stdout4, report4) = run_sweep(&d4, 4);
    assert!(!stdout1.is_empty(), "sweep tables go to stdout");
    assert_eq!(stdout4, stdout1, "stdout must not depend on --jobs");
    assert_eq!(report4, report1, "report must not depend on --jobs");
    // The report must carry no trace of which thread computed what.
    assert!(
        !report1.contains("worker"),
        "report leaks worker attribution"
    );
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output() {
    let base = tmp_path("sweep-base");
    let kill = tmp_path("sweep-kill");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&kill).ok();
    let (stdout_ref, report_ref) = run_sweep(&base, 1);

    // Start a 2-thread sweep and kill it once real progress is on disk
    // but well before the end.
    let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["sweep", "--grid", GRID, "--pareto", "--jobs", "2"])
        .arg("--ckpt")
        .arg(&kill)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("sweep spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if ckpt_records(&kill) >= 20 {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            panic!("sweep finished before the kill — grid too small for this test");
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint progress within 60s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill");
    child.wait().expect("wait");
    let salvaged = ckpt_records(&kill);
    assert!(salvaged >= 20, "kill erased checkpointed cells");
    assert!(salvaged < 1080, "kill landed after the sweep finished");

    // Resume with a *different* thread count: completed cells are skipped,
    // the rest recomputed, and the merged output is byte-identical.
    let (stdout_res, report_res) = run_sweep(&kill, 4);
    assert_eq!(stdout_res, stdout_ref, "resumed stdout differs");
    assert_eq!(report_res, report_ref, "resumed report differs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&kill).ok();
}

#[test]
fn all_experiments_are_byte_identical_for_any_worker_count() {
    let (stdout1, exps1) = run_all(1);
    assert!(!stdout1.is_empty(), "tables go to stdout");
    for jobs in [2, 4] {
        let (stdout, exps) = run_all(jobs);
        assert_eq!(
            stdout, stdout1,
            "stdout must be byte-identical at jobs={jobs}"
        );
        assert_eq!(
            exps, exps1,
            "experiments report must be identical at jobs={jobs}"
        );
    }
}
