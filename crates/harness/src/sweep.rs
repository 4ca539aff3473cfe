//! The sweep engine: resumable grid runs on the in-process thread pool.
//!
//! `harness sweep` expands a [`GridSpec`] into thousands of (config,
//! benchmark) cells and runs them on `--jobs` threads
//! ([`crate::sched::run_dynamic`]): each thread claims the next missing
//! cell, and the calling thread checkpoints every result as it arrives.
//! The checkpoint directory holds:
//!
//! * `grid.spec` — the grid's canonical form; its CRC32 is the grid hash
//!   every segment carries, so a resume against an edited grid is refused
//!   instead of silently remapping cell ids;
//! * `sweep.ckpt` — one [`tracefile::ckpt`] segment, one CRC-framed
//!   record per completed cell, flushed per cell.
//!
//! A killed sweep resumes by reading the segments back: completed cells
//! are skipped, damaged records are reported (one structured
//! [`obs::log`] error each) and recomputed, and the in-flight cell a
//! kill tore mid-record costs exactly itself. The checkpoint payload is
//! **integer event counts only** — accuracy, coverage and conflict rates
//! are derived at render time — because integers below 2⁵³ round-trip
//! JSON bit-exactly where pre-divided ratios need not, and bit-exact
//! payloads are what make resumed output byte-identical.
//!
//! Determinism: the final tables, the `--out` report, and the merged
//! metrics registry are a pure function of the (complete) cell-counts
//! map, assembled in grid order via [`Registry::merge`]. Thread count,
//! claim order, and interrupt/resume splits can only change *which
//! thread* computes a cell, never the bytes that come out. Wall-clock and
//! per-thread attribution go to the checkpoint records, the timeline, and
//! live metrics — never into the deterministic surfaces.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gdiff::GDiffPredictor;
use obs::{JsonValue, Registry, SharedRegistry};
use predictors::{Capacity, ConfidenceConfig, ConfidenceTable};
use tracefile::ckpt::{read_ckpt, CkptDamage, CkptRecord, CkptWriter};
use workloads::SyntheticSource;

use crate::grid::{GridCell, GridSpec};
use crate::profile::run_profile_gated;
use crate::report::Table;
use crate::sched;
use crate::RunParams;

/// Schema tag of the `--out` report.
pub const SWEEP_SCHEMA: &str = "gdiff-sweep-report/v1";

/// The checkpoint segment a sweep appends to. Resume reads every `*.ckpt`
/// segment in the directory, so older layouts with one segment per worker
/// process (`worker-<k>.ckpt`, `worker-main.ckpt`) resume too.
const SEGMENT: &str = "sweep.ckpt";

// ---------------------------------------------------------------------
// Cell results
// ---------------------------------------------------------------------

/// The integer event counts one sweep cell produces — the checkpoint
/// payload. Every reported metric derives from these at render time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Measured value producers.
    pub total: u64,
    /// Producers for which gDiff ventured a prediction.
    pub predicted: u64,
    /// Correct predictions (ungated).
    pub correct: u64,
    /// Predictions the confidence gate endorsed.
    pub confident: u64,
    /// Endorsed predictions that were correct.
    pub confident_correct: u64,
    /// Prediction-table accesses (warmup included).
    pub table_accesses: u64,
    /// Prediction-table aliasing conflicts.
    pub table_conflicts: u64,
    /// Table storage footprint in bits after the run.
    pub table_bits: u64,
}

impl CellCounts {
    /// Serializes to the checkpoint payload (compact JSON, fixed key
    /// order — the same counts always give the same bytes).
    pub fn to_payload(&self) -> Vec<u8> {
        JsonValue::object()
            .with("total", self.total)
            .with("predicted", self.predicted)
            .with("correct", self.correct)
            .with("confident", self.confident)
            .with("confident_correct", self.confident_correct)
            .with("table_accesses", self.table_accesses)
            .with("table_conflicts", self.table_conflicts)
            .with("table_bits", self.table_bits)
            .to_json()
            .into_bytes()
    }

    /// Parses a checkpoint payload. A malformed payload is treated like a
    /// corrupt record by callers: reported, skipped, recomputed.
    pub fn from_payload(bytes: &[u8]) -> Result<CellCounts, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "payload is not UTF-8".to_string())?;
        let v = JsonValue::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
        let field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("payload is missing '{k}'"))
        };
        Ok(CellCounts {
            total: field("total")?,
            predicted: field("predicted")?,
            correct: field("correct")?,
            confident: field("confident")?,
            confident_correct: field("confident_correct")?,
            table_accesses: field("table_accesses")?,
            table_conflicts: field("table_conflicts")?,
            table_bits: field("table_bits")?,
        })
    }

    fn add(&mut self, o: &CellCounts) {
        self.total += o.total;
        self.predicted += o.predicted;
        self.correct += o.correct;
        self.confident += o.confident;
        self.confident_correct += o.confident_correct;
        self.table_accesses += o.table_accesses;
        self.table_conflicts += o.table_conflicts;
        self.table_bits = self.table_bits.max(o.table_bits);
    }

    /// Ungated accuracy `correct / total`.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.total)
    }

    /// Gated accuracy `confident_correct / confident`. With threshold 0
    /// (ungated cells) "confident" means "predicted", so this is the
    /// accuracy of the predictions made.
    pub fn gated_accuracy(&self) -> f64 {
        ratio(self.confident_correct, self.confident)
    }

    /// Coverage `confident / total`.
    pub fn coverage(&self) -> f64 {
        ratio(self.confident, self.total)
    }

    /// Table conflict rate `table_conflicts / table_accesses`.
    pub fn conflict_rate(&self) -> f64 {
        ratio(self.table_conflicts, self.table_accesses)
    }

    /// Publishes the counts onto a registry — the per-cell registry whose
    /// grid-order [`Registry::merge`] into the master is the sweep's
    /// deterministic-metrics anchor. `sweep.table_bits.max` max-merges
    /// (the `.max` gauge rule), everything else sums.
    pub fn publish(&self, reg: &mut Registry) {
        let c = reg.counter("sweep.cells");
        reg.inc(c);
        for (name, v) in [
            ("sweep.producers", self.total),
            ("sweep.predicted", self.predicted),
            ("sweep.correct", self.correct),
            ("sweep.confident", self.confident),
            ("sweep.confident_correct", self.confident_correct),
            ("sweep.table.accesses", self.table_accesses),
            ("sweep.table.conflicts", self.table_conflicts),
        ] {
            let c = reg.counter(name);
            reg.add(c, v);
        }
        let g = reg.gauge("sweep.table_bits.max");
        if self.table_bits as f64 > reg.gauge_value(g) {
            reg.set_gauge(g, self.table_bits as f64);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one grid cell: a confidence-gated profile-mode run of gDiff at
/// the cell's (order, depth, threshold, delay) over the cell's benchmark.
pub fn run_cell_counts(cell: GridCell, params: RunParams) -> CellCounts {
    let cap = if cell.depth == 0 {
        Capacity::Unbounded
    } else {
        Capacity::Entries(cell.depth)
    };
    let mut p = GDiffPredictor::with_delay(cap, cell.order, cell.delay);
    let mut conf = (cell.threshold > 0).then(|| {
        ConfidenceTable::new(
            cap,
            ConfidenceConfig {
                threshold: cell.threshold,
                ..ConfidenceConfig::default()
            },
        )
    });
    let source = SyntheticSource::new(params.seed);
    let stats = run_profile_gated(&source, cell.bench, &mut p, conf.as_mut(), params);
    let geometry = p.core().geometry();
    CellCounts {
        total: stats.total(),
        predicted: stats.predicted(),
        correct: stats.correct(),
        confident: stats.confident(),
        confident_correct: stats.confident_correct(),
        table_accesses: p.core().table_accesses(),
        table_conflicts: p.core().table_conflicts(),
        table_bits: geometry.bytes * 8,
    }
}

// ---------------------------------------------------------------------
// Checkpoint directory
// ---------------------------------------------------------------------

fn spec_path(dir: &Path) -> PathBuf {
    dir.join("grid.spec")
}

/// All checkpoint segments in the directory, sorted by file name so scan
/// order (and therefore duplicate-resolution order) is deterministic.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    out.sort();
    out
}

/// Prepares the checkpoint directory for a sweep of `grid`.
///
/// Creates it if missing and pins the grid: an existing `grid.spec` that
/// differs from this grid is an error unless `fresh` wipes the directory.
pub fn prepare_dir(dir: &Path, grid: &GridSpec, fresh: bool) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spec = spec_path(dir);
    let canonical = grid.canonical();
    let existing = std::fs::read_to_string(&spec).ok();
    let mismatch = existing.as_deref().is_some_and(|t| t != canonical);
    if mismatch && !fresh {
        return Err(format!(
            "{} holds checkpoints for a different grid; \
             re-run with --fresh to discard them",
            dir.display()
        ));
    }
    if fresh {
        for seg in segments(dir) {
            std::fs::remove_file(&seg)
                .map_err(|e| format!("cannot remove {}: {e}", seg.display()))?;
        }
        std::fs::remove_file(&spec).ok();
    }
    std::fs::write(&spec, canonical)
        .map_err(|e| format!("cannot write {}: {e}", spec.display()))?;
    Ok(())
}

/// Reads every segment back into a cell → counts map.
///
/// Damage never aborts the sweep: a damaged or unreadable record is
/// logged (one structured [`obs::log::error`] per incident, mirrored to
/// stderr) and its cell is simply recomputed. With `repair` set, a
/// damaged segment is rewritten to its intact prefix so that reopening
/// it for append cannot hide new records behind torn bytes.
pub fn load_completed(dir: &Path, grid: &GridSpec, repair: bool) -> BTreeMap<u32, CellCounts> {
    let hash = grid.hash();
    let n = grid.cell_count();
    let mut completed = BTreeMap::new();
    for seg in segments(dir) {
        let read = match read_ckpt(&seg, hash) {
            Ok(r) => r,
            Err(e) => {
                report_damage(&seg, "unreadable checkpoint segment", &format!("{e}"), None);
                continue;
            }
        };
        let mut intact: Vec<CkptRecord> = Vec::with_capacity(read.records.len());
        for rec in read.records {
            if rec.cell >= n {
                report_damage(
                    &seg,
                    "checkpoint record for a cell outside the grid",
                    &format!("cell {} of {n}", rec.cell),
                    Some(rec.cell),
                );
                continue;
            }
            match CellCounts::from_payload(&rec.payload) {
                Ok(counts) => {
                    completed.insert(rec.cell, counts);
                    intact.push(rec);
                }
                Err(reason) => report_damage(
                    &seg,
                    "undecodable checkpoint payload",
                    &reason,
                    Some(rec.cell),
                ),
            }
        }
        if let Some(damage) = read.damage {
            let cell = match &damage {
                CkptDamage::Corrupt { cell, .. } => Some(*cell),
                CkptDamage::TornTail { .. } => None,
            };
            report_damage(
                &seg,
                "checkpoint damage; affected cells will be recomputed",
                &format!("{damage}"),
                cell,
            );
            if repair {
                if let Err(e) = rewrite_segment(&seg, hash, &intact) {
                    eprintln!(
                        "warning: sweep: cannot repair {}: {e} (segment dropped)",
                        seg.display()
                    );
                    for rec in &intact {
                        completed.remove(&rec.cell);
                    }
                    std::fs::remove_file(&seg).ok();
                }
            }
        }
    }
    completed
}

fn report_damage(seg: &Path, msg: &'static str, detail: &str, cell: Option<u32>) {
    eprintln!(
        "warning: sweep: {}: {msg}: {detail}{}",
        seg.display(),
        cell.map(|c| format!(" (cell {c})")).unwrap_or_default()
    );
    obs::log::error(
        "harness.sweep",
        msg,
        &[
            ("segment", obs::log::Value::from(&*seg.to_string_lossy())),
            ("detail", obs::log::Value::from(detail)),
            ("cell", obs::log::Value::from(cell.map_or(-1, |c| c as i64))),
        ],
    );
}

/// Rewrites a segment to exactly `records` via a temp file + rename, so a
/// kill during repair can never make things worse.
fn rewrite_segment(seg: &Path, hash: u32, records: &[CkptRecord]) -> std::io::Result<()> {
    let tmp = seg.with_extension("ckpt.tmp");
    let mut w = CkptWriter::create(&tmp, hash)?;
    for rec in records {
        w.append(rec.cell, rec.worker, &rec.payload)?;
    }
    drop(w);
    std::fs::rename(&tmp, seg)
}

// ---------------------------------------------------------------------
// Running the sweep
// ---------------------------------------------------------------------

/// Runs the whole sweep to completion and returns the full cell → counts
/// map (resumed + computed).
///
/// Completed cells are read back (damaged segments repaired), then every
/// missing cell runs on `jobs` threads. The calling thread appends each
/// result to `sweep.ckpt`, recording the executing thread's index as the
/// record's `worker`.
pub fn sweep_parent(
    dir: &Path,
    grid: &GridSpec,
    jobs: usize,
    live: Option<&SharedRegistry>,
) -> Result<BTreeMap<u32, CellCounts>, String> {
    let n = grid.cell_count();
    let mut completed = load_completed(dir, grid, true);
    if !completed.is_empty() {
        eprintln!(
            "sweep: resuming — {} of {n} cells already checkpointed",
            completed.len()
        );
    }
    let mut writer = CkptWriter::open_append(&dir.join(SEGMENT), grid.hash())
        .map_err(|e| format!("cannot open checkpoint segment: {e}"))?;
    let params = grid.params;
    let mut missing = (0..n)
        .filter(|id| !completed.contains_key(id))
        .collect::<Vec<u32>>()
        .into_iter();
    // Cells checkpointed, and cells a thread has claimed but the calling
    // thread has not yet checkpointed (the `claimed` progress state).
    let checkpointed = AtomicU64::new(completed.len() as u64);
    let claimed = AtomicU64::new(0);
    publish_progress(live, n, completed.len() as u64, 0);
    let mut append_err = None;
    sched::run_dynamic(
        |_thread| {
            let id = missing.next()?;
            let in_flight = claimed.fetch_add(1, Ordering::Relaxed) + 1;
            publish_progress(live, n, checkpointed.load(Ordering::Relaxed), in_flight);
            let cell = grid.cell(id);
            Some((
                id as u64,
                sched::Cell::new(
                    format!("sweep.{}", cell.label()),
                    move |_reg: &mut Registry| run_cell_counts(cell, params),
                ),
            ))
        },
        jobs,
        live,
        |done| {
            let counts = done
                .out
                .downcast::<CellCounts>()
                .expect("sweep cells return CellCounts");
            let id = done.id as u32;
            if let Err(e) = writer.append(id, done.worker as u32, &counts.to_payload()) {
                append_err.get_or_insert_with(|| format!("checkpoint append failed: {e}"));
            }
            obs::span::record(format!("cell.sweep.{}", grid.cell(id).label()), done.busy);
            completed.insert(id, *counts);
            let in_flight = claimed.fetch_sub(1, Ordering::Relaxed) - 1;
            let finished = checkpointed.fetch_add(1, Ordering::Relaxed) + 1;
            publish_progress(live, n, finished, in_flight);
        },
    );
    match append_err {
        Some(e) => Err(e),
        None => Ok(completed),
    }
}

/// Live `sweep.cells.{done,claimed,pending}` gauges — the
/// `sweep_cells_total{state=...}` exposition family.
fn publish_progress(live: Option<&SharedRegistry>, n: u32, done: u64, in_flight: u64) {
    let Some(live) = live else { return };
    live.with(|r| {
        let g = r.gauge("sweep.cells.done");
        r.set_gauge(g, done as f64);
        let g = r.gauge("sweep.cells.claimed");
        r.set_gauge(g, in_flight as f64);
        let g = r.gauge("sweep.cells.pending");
        r.set_gauge(g, (n as u64).saturating_sub(done + in_flight) as f64);
    });
}

// ---------------------------------------------------------------------
// Deterministic rendering
// ---------------------------------------------------------------------

/// One configuration's pooled results across its benchmarks.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// (order, depth, threshold, delay).
    pub config: (usize, usize, u8, usize),
    /// Pooled counts (sums; `table_bits` is the max across benchmarks).
    pub pooled: CellCounts,
}

/// Aggregates cells per configuration, in grid nested order.
pub fn aggregate_configs(grid: &GridSpec, completed: &BTreeMap<u32, CellCounts>) -> Vec<ConfigRow> {
    let mut order: Vec<(usize, usize, u8, usize)> = Vec::new();
    let mut pooled: BTreeMap<(usize, usize, u8, usize), CellCounts> = BTreeMap::new();
    for cell in grid.cells() {
        let key = cell.config();
        if !pooled.contains_key(&key) {
            order.push(key);
        }
        if let Some(counts) = completed.get(&cell.id) {
            pooled.entry(key).or_default().add(counts);
        }
    }
    order
        .into_iter()
        .map(|config| ConfigRow {
            config,
            pooled: pooled.get(&config).copied().unwrap_or_default(),
        })
        .collect()
}

/// The Pareto-frontier subset of `configs` for (gated accuracy ↑,
/// coverage ↑, table bits ↓): a config survives unless some other config
/// is at least as good on all three axes and strictly better on one.
/// The frontier is returned cheapest-table-first.
pub fn pareto_frontier(configs: &[ConfigRow]) -> Vec<ConfigRow> {
    let dominates = |a: &ConfigRow, b: &ConfigRow| -> bool {
        let (aa, ac, ab) = (
            a.pooled.gated_accuracy(),
            a.pooled.coverage(),
            a.pooled.table_bits,
        );
        let (ba, bc, bb) = (
            b.pooled.gated_accuracy(),
            b.pooled.coverage(),
            b.pooled.table_bits,
        );
        aa >= ba && ac >= bc && ab <= bb && (aa > ba || ac > bc || ab < bb)
    };
    let mut frontier: Vec<ConfigRow> = configs
        .iter()
        .filter(|c| !configs.iter().any(|o| dominates(o, c)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.pooled
            .table_bits
            .cmp(&b.pooled.table_bits)
            .then(a.config.cmp(&b.config))
    });
    frontier
}

fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

fn config_row_cells(row: &ConfigRow) -> Vec<String> {
    let (order, depth, threshold, delay) = row.config;
    vec![
        order.to_string(),
        if depth == 0 {
            "unbounded".to_string()
        } else {
            depth.to_string()
        },
        threshold.to_string(),
        delay.to_string(),
        pct(row.pooled.accuracy()),
        pct(row.pooled.gated_accuracy()),
        pct(row.pooled.coverage()),
        pct(row.pooled.conflict_rate()),
        (row.pooled.table_bits / 8 / 1024).to_string(),
    ]
}

/// Renders the sweep's deterministic outputs: the stdout text (config
/// table, plus the Pareto table when asked) and the
/// `gdiff-sweep-report/v1` JSON. Also returns the master registry merged
/// from the per-cell counts in grid order.
pub fn render_sweep(
    grid: &GridSpec,
    completed: &BTreeMap<u32, CellCounts>,
    pareto: bool,
    scale: f64,
) -> (String, JsonValue) {
    // Registry::merge in cell order is the metrics anchor: the same map
    // always merges to the same registry, whatever computed it.
    let mut master = Registry::new();
    for (_, counts) in completed.iter() {
        let mut reg = Registry::new();
        counts.publish(&mut reg);
        master.merge(&reg);
    }

    let configs = aggregate_configs(grid, completed);
    let headers = [
        "order", "depth", "thresh", "delayT", "acc%", "gated%", "cov%", "conf%", "tableKB",
    ];
    let mut text = String::new();
    let mut t = Table::new(
        format!(
            "Sweep: {} cells ({} configs x {} benchmarks, {}+{} insts/cell)",
            grid.cell_count(),
            configs.len(),
            grid.benches.len(),
            grid.params.warmup,
            grid.params.measure,
        ),
        &headers,
    );
    for row in &configs {
        t.row(config_row_cells(row));
    }
    text.push_str(&t.render());

    let frontier = pareto_frontier(&configs);
    if pareto {
        let mut t = Table::new(
            format!(
                "Pareto frontier: {} of {} configs (gated accuracy x coverage vs table bits)",
                frontier.len(),
                configs.len()
            ),
            &headers,
        );
        for row in &frontier {
            t.row(config_row_cells(row));
        }
        text.push_str(&t.render());
    }

    let config_json = |row: &ConfigRow| {
        let (order, depth, threshold, delay) = row.config;
        JsonValue::object()
            .with("order", order as u64)
            .with("depth", depth as u64)
            .with("threshold", threshold as u64)
            .with("delay", delay as u64)
            .with("total", row.pooled.total)
            .with("confident", row.pooled.confident)
            .with("confident_correct", row.pooled.confident_correct)
            .with("accuracy", row.pooled.accuracy())
            .with("gated_accuracy", row.pooled.gated_accuracy())
            .with("coverage", row.pooled.coverage())
            .with("conflict_rate", row.pooled.conflict_rate())
            .with("table_bits", row.pooled.table_bits)
    };
    let cells_json: Vec<JsonValue> = grid
        .cells()
        .map(|cell| {
            let counts = completed.get(&cell.id).copied().unwrap_or_default();
            JsonValue::object()
                .with("id", cell.id as u64)
                .with("label", cell.label())
                .with("total", counts.total)
                .with("predicted", counts.predicted)
                .with("correct", counts.correct)
                .with("confident", counts.confident)
                .with("confident_correct", counts.confident_correct)
                .with("table_accesses", counts.table_accesses)
                .with("table_conflicts", counts.table_conflicts)
                .with("table_bits", counts.table_bits)
        })
        .collect();

    let mut report = JsonValue::object()
        .with("schema", SWEEP_SCHEMA)
        .with("seed", grid.params.seed)
        .with("scale", scale)
        .with(
            "grid",
            JsonValue::object()
                .with("hash", grid.hash() as u64)
                .with("cells", grid.cell_count() as u64)
                .with("spec", grid.canonical()),
        )
        .with("cells", JsonValue::Arr(cells_json))
        .with(
            "configs",
            JsonValue::Arr(configs.iter().map(config_json).collect()),
        );
    if pareto {
        report = report.with(
            "pareto",
            JsonValue::Arr(frontier.iter().map(config_json).collect()),
        );
    }
    report = report.with("metrics", master.to_json());
    (text, report)
}

/// Renders the `--dry-run` expansion summary (no checkpoint I/O at all).
pub fn render_dry_run(grid: &GridSpec) -> String {
    let (per_cell, table_bytes) = grid.footprint();
    let n = grid.cell_count() as u64;
    format!(
        "sweep dry run: {n} cells\n\
         \x20 axes: order x{} | depth x{} | threshold x{} | delay x{} | bench x{}\n\
         \x20 per cell: {per_cell} producers ({} warmup + {} measured)\n\
         \x20 total: {} simulated producers\n\
         \x20 largest table: ~{} KiB per in-flight cell\n\
         \x20 grid hash: {:#010x}\n",
        grid.orders.len(),
        grid.depths.len(),
        grid.thresholds.len(),
        grid.delays.len(),
        grid.benches.len(),
        grid.params.warmup,
        grid.params.measure,
        n * per_cell,
        table_bytes / 1024,
        grid.hash(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        let counts = CellCounts {
            total: 40_000,
            predicted: 31_234,
            correct: 28_111,
            confident: 25_000,
            confident_correct: 24_500,
            table_accesses: 45_000,
            table_conflicts: 123,
            table_bits: 8 * 1024 * 80,
        };
        let payload = counts.to_payload();
        assert_eq!(CellCounts::from_payload(&payload).unwrap(), counts);
        // Bit-for-bit stable serialization: resume depends on it.
        assert_eq!(
            payload,
            CellCounts::from_payload(&payload).unwrap().to_payload()
        );
        assert!(CellCounts::from_payload(b"{}").is_err());
        assert!(CellCounts::from_payload(b"\xff\xfe").is_err());
    }

    #[test]
    fn sweep_checkpoints_each_cell_once_and_settles_progress() {
        let dir = std::env::temp_dir().join(format!("gdiff-sweep-unit-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let grid = GridSpec::parse(
            "order=2,4;bench=gcc,mcf;measure=1000;warmup=0",
            RunParams::tiny(),
        )
        .unwrap();
        prepare_dir(&dir, &grid, false).unwrap();
        let live = SharedRegistry::new();
        let first = sweep_parent(&dir, &grid, 2, Some(&live)).unwrap();
        assert_eq!(first.len(), 4);
        let snap = live.snapshot();
        for (state, want) in [("done", 4.0), ("claimed", 0.0), ("pending", 0.0)] {
            let got = snap.gauge_by_name(&format!("sweep.cells.{state}"));
            assert_eq!(got, Some(want), "{state}");
        }
        // Resuming a finished sweep runs nothing and appends nothing.
        let again = sweep_parent(&dir, &grid, 2, None).unwrap();
        assert_eq!(again, first);
        let read = read_ckpt(&dir.join(SEGMENT), grid.hash()).unwrap();
        assert_eq!(read.records.len(), 4);
        assert!(read.records.iter().all(|r| r.worker < 2), "thread index");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pareto_keeps_only_non_dominated_configs() {
        let mk = |acc: u64, cov: u64, bits: u64| ConfigRow {
            config: (8, bits as usize, 4, 0),
            pooled: CellCounts {
                total: 100,
                predicted: 100,
                correct: acc,
                confident: cov,
                confident_correct: acc.min(cov),
                table_accesses: 100,
                table_conflicts: 0,
                table_bits: bits,
            },
        };
        // (gated_acc, coverage, bits): b dominates c; a and b trade off.
        let a = mk(90, 50, 1_000);
        let b = mk(80, 80, 2_000);
        let c = mk(70, 70, 4_000);
        let frontier = pareto_frontier(&[a.clone(), b.clone(), c]);
        assert_eq!(frontier.len(), 2);
        assert_eq!(frontier[0].pooled.table_bits, 1_000);
        assert_eq!(frontier[1].pooled.table_bits, 2_000);
    }

    #[test]
    fn render_is_a_pure_function_of_the_counts_map() {
        let grid = GridSpec::parse(
            "order=2,4;bench=gcc,mcf;measure=1000;warmup=0",
            RunParams::tiny(),
        )
        .unwrap();
        let mut completed = BTreeMap::new();
        for cell in grid.cells() {
            completed.insert(
                cell.id,
                CellCounts {
                    total: 1000,
                    predicted: 700 + cell.id as u64,
                    correct: 600,
                    confident: 500,
                    confident_correct: 480,
                    table_accesses: 1000,
                    table_conflicts: 3,
                    table_bits: 1024 * (cell.order as u64),
                },
            );
        }
        let (text1, json1) = render_sweep(&grid, &completed, true, 1.0);
        let (text2, json2) = render_sweep(&grid, &completed, true, 1.0);
        assert_eq!(text1, text2);
        assert_eq!(json1.to_json_pretty(), json2.to_json_pretty());
        assert!(text1.contains("Pareto frontier"));
        let metrics = json1.get("metrics").expect("metrics section");
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("sweep.cells"))
                .and_then(JsonValue::as_f64),
            Some(4.0)
        );
        // `.max` gauges max-merge: the largest table wins.
        assert_eq!(
            metrics
                .get("gauges")
                .and_then(|g| g.get("sweep.table_bits.max"))
                .and_then(JsonValue::as_f64),
            Some(4096.0)
        );
    }
}
