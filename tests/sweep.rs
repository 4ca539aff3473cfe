//! Sweep-engine failure-path contracts, tested through the binary:
//! checkpoint corruption is surfaced as data and repaired by recompute
//! (never a panic, never a wrong number), a checkpoint directory in the
//! older one-segment-per-worker-process layout resumes, and `--dry-run`
//! validates and prices a grid without touching disk.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdiff-sweep-test-{}-{name}", std::process::id()));
    p
}

/// Small but multi-config grid: 2x2x2 configs x 2 benchmarks = 16 cells.
const GRID: &str = "order=2,8;depth=1024,8192;threshold=0,4;bench=gcc,parser;warmup=0;measure=1000";

fn run_sweep(dir: &Path, extra: &[&str]) -> std::process::Output {
    let json = dir.with_extension("json");
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["sweep", "--grid", GRID, "--pareto", "--out"])
        .arg(&json)
        .arg("--ckpt")
        .arg(dir)
        .args(extra)
        .output()
        .expect("harness sweep runs")
}

fn read_report(dir: &Path) -> String {
    std::fs::read_to_string(dir.with_extension("json")).expect("report written")
}

fn ckpt_segments(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("ckpt dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    v.sort();
    v
}

#[test]
fn corrupted_checkpoint_is_recomputed_not_trusted() {
    let dir = tmp_path("corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let out = run_sweep(&dir, &[]);
    assert!(out.status.success());
    let reference = read_report(&dir);
    let stdout_ref = out.stdout.clone();

    // Flip one payload byte in the first record of the first segment
    // (header 24B + record header 16B puts the first payload byte at 40).
    let seg = &ckpt_segments(&dir)[0];
    let mut bytes = std::fs::read(seg).expect("segment readable");
    assert!(bytes.len() > 41, "segment holds at least one record");
    bytes[40] ^= 0xff;
    std::fs::write(seg, &bytes).expect("inject corruption");

    // Resume: the damaged record (and everything the stopped scan hid
    // behind it) is recomputed; the output is still byte-identical, and
    // the damage is reported on stderr with the cell and offset intact.
    let journal = dir.with_extension("journal");
    let out = run_sweep(
        &dir,
        &["--log", journal.to_str().unwrap(), "--log-level", "error"],
    );
    assert!(
        out.status.success(),
        "corruption must not fail the sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint damage"),
        "damage unsurfaced: {stderr}"
    );
    assert_eq!(out.stdout, stdout_ref, "corruption changed the tables");
    assert_eq!(
        read_report(&dir),
        reference,
        "corruption changed the report"
    );

    // The structured journal carries the same incident for machines.
    let logs = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("logs")
        .arg(&journal)
        .args(["--level", "error", "--json"])
        .output()
        .expect("harness logs runs");
    let text = String::from_utf8_lossy(&logs.stdout);
    assert!(
        text.contains("harness.sweep") && text.contains("checkpoint damage"),
        "no structured corruption record: {text}"
    );

    // The repaired segment reads clean now.
    for seg in ckpt_segments(&dir) {
        let read = tracefile::read_ckpt(&seg, grid_hash(&dir)).expect("segment readable");
        assert!(
            read.damage.is_none(),
            "repair left damage in {}",
            seg.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(dir.with_extension("json")).ok();
}

fn grid_hash(dir: &Path) -> u32 {
    let spec = std::fs::read_to_string(dir.join("grid.spec")).expect("grid.spec");
    tracefile::crc32::crc32(spec.as_bytes())
}

#[test]
fn truncated_checkpoint_tail_is_tolerated() {
    let dir = tmp_path("torn");
    std::fs::remove_dir_all(&dir).ok();
    let out = run_sweep(&dir, &[]);
    assert!(out.status.success());
    let reference = read_report(&dir);

    // Chop a segment mid-record: the shape a SIGKILL leaves behind.
    let seg = &ckpt_segments(&dir)[0];
    let bytes = std::fs::read(seg).expect("segment readable");
    std::fs::write(seg, &bytes[..bytes.len() - 5]).expect("tear tail");

    let out = run_sweep(&dir, &[]);
    assert!(out.status.success(), "torn tail must not fail the sweep");
    assert_eq!(read_report(&dir), reference, "torn tail changed the report");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(dir.with_extension("json")).ok();
}

#[test]
fn resume_against_a_different_grid_is_refused() {
    let dir = tmp_path("gridswap");
    std::fs::remove_dir_all(&dir).ok();
    assert!(run_sweep(&dir, &[]).status.success());

    let other = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "sweep",
            "--grid",
            "order=4;bench=gcc;measure=1000",
            "--ckpt",
        ])
        .arg(&dir)
        .output()
        .expect("harness sweep runs");
    assert_eq!(
        other.status.code(),
        Some(1),
        "grid swap must be a hard error"
    );
    let stderr = String::from_utf8_lossy(&other.stderr);
    assert!(
        stderr.contains("--fresh"),
        "error must point at --fresh: {stderr}"
    );

    // --fresh wipes and reruns.
    let fresh = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "sweep",
            "--grid",
            "order=4;bench=gcc;measure=1000",
            "--fresh",
            "--ckpt",
        ])
        .arg(&dir)
        .output()
        .expect("harness sweep runs");
    assert!(
        fresh.status.success(),
        "--fresh must recover: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(dir.with_extension("json")).ok();
}

#[test]
fn dry_run_prices_the_grid_without_touching_disk() {
    let dir = tmp_path("dry");
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["sweep", "--grid", GRID, "--dry-run"])
        .output()
        .expect("harness sweep runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("16 cells"), "cell count missing: {text}");
    assert!(text.contains("order x2"), "axis sizes missing: {text}");
    assert!(
        text.contains("1000 producers"),
        "per-cell cost missing: {text}"
    );
    assert!(text.contains("grid hash"), "grid hash missing: {text}");
    assert!(!dir.exists(), "--dry-run created the checkpoint dir");
}

#[test]
fn sweep_report_has_the_declared_schema_and_pooled_counts() {
    let dir = tmp_path("schema");
    std::fs::remove_dir_all(&dir).ok();
    let out = run_sweep(&dir, &[]);
    assert!(out.status.success());
    let report = obs::JsonValue::parse(&read_report(&dir)).expect("report parses");
    assert_eq!(
        report.get("schema").and_then(|v| v.as_str()),
        Some("gdiff-sweep-report/v1")
    );
    let cells = report.get("cells").and_then(|v| v.as_arr()).expect("cells");
    assert_eq!(cells.len(), 16);
    // Config rows pool their benchmarks: each config's total is the sum
    // of its cells' totals (2 benchmarks x 1000 measured producers).
    let configs = report
        .get("configs")
        .and_then(|v| v.as_arr())
        .expect("configs");
    assert_eq!(configs.len(), 8);
    for c in configs {
        assert_eq!(c.get("total").and_then(|v| v.as_f64()), Some(2000.0));
    }
    let pareto = report
        .get("pareto")
        .and_then(|v| v.as_arr())
        .expect("pareto");
    assert!(!pareto.is_empty() && pareto.len() <= configs.len());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(dir.with_extension("json")).ok();
}

#[test]
fn multi_process_checkpoint_layout_resumes_byte_identically() {
    let reference = tmp_path("layout-ref");
    let dir = tmp_path("layout");
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&dir).ok();
    let out = run_sweep(&reference, &[]);
    assert!(out.status.success());
    let stdout_ref = out.stdout;
    let report_ref = read_report(&reference);

    // Lay the reference records out as worker processes used to leave
    // them: one segment per shard, stragglers in `worker-main.ckpt`,
    // cell 5 in two segments, cells 13..16 never finished, and a claim
    // file for every cell.
    let hash = grid_hash(&reference);
    let mut records = Vec::new();
    for seg in ckpt_segments(&reference) {
        records.extend(tracefile::read_ckpt(&seg, hash).expect("segment").records);
    }
    records.sort_by_key(|r| r.cell);
    assert_eq!(records.len(), 16, "reference checkpoints every cell once");
    std::fs::create_dir_all(dir.join("claims")).expect("claims dir");
    std::fs::copy(reference.join("grid.spec"), dir.join("grid.spec")).expect("grid.spec");
    for (name, worker, cells) in [
        ("worker-0.ckpt", 0, 0..6),
        ("worker-1.ckpt", 1, 5..10),
        ("worker-main.ckpt", u32::MAX, 10..13),
    ] {
        let mut w = tracefile::CkptWriter::create(&dir.join(name), hash).expect("segment");
        for rec in &records[cells] {
            w.append(rec.cell, worker, &rec.payload).expect("append");
        }
    }
    for cell in 0..16 {
        std::fs::File::create(dir.join("claims").join(format!("c{cell}"))).expect("claim");
    }

    let out = run_sweep(&dir, &[]);
    assert!(
        out.status.success(),
        "old layout must resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("13 of 16 cells already checkpointed"),
        "{stderr}"
    );
    assert_eq!(out.stdout, stdout_ref, "resumed tables differ");
    assert_eq!(read_report(&dir), report_ref, "resumed report differs");
    // Only the three unfinished cells ran again, despite their claims.
    let total: usize = ckpt_segments(&dir)
        .iter()
        .map(|seg| {
            tracefile::read_ckpt(seg, hash)
                .expect("segment")
                .records
                .len()
        })
        .sum();
    assert_eq!(total, 6 + 5 + 3 + 3);
    for d in [&reference, &dir] {
        std::fs::remove_dir_all(d).ok();
        std::fs::remove_file(d.with_extension("json")).ok();
    }
}
