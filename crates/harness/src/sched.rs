//! A std-only parallel scheduler for experiment cells.
//!
//! Every multi-benchmark experiment decomposes into independent
//! *(experiment, cell)* units of work — typically one benchmark, or one
//! sweep point — that share nothing but a read-only [`TraceSource`].
//! The scheduler fans those cells out over `std::thread::scope` workers
//! and reassembles the results so that **output is byte-identical to a
//! sequential run regardless of worker count or completion order**:
//!
//! * each cell runs against a private [`obs::Registry`]; the per-cell
//!   registries are merged into the master registry in *cell order*, never
//!   completion order, so merged counters/histograms (and the JSON they
//!   export to) are deterministic;
//! * cell outputs are buffered and experiments are assembled and emitted
//!   strictly in plan order — a later experiment finishing first waits.
//!
//! Only wall-clock timings (the report's `timings` section, the stderr
//! `[exp took Ns]` lines) vary between runs; tables and the `experiments`
//! report section do not.
//!
//! [`TraceSource`]: workloads::TraceSource

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use obs::{JsonValue, Registry, SharedRegistry};

/// What a cell returns: one experiment-specific row, type-erased so the
/// scheduler stays generic. The owning plan's `assemble` downcasts it.
pub type CellOutput = Box<dyn Any + Send>;

type CellFn<'a> = Box<dyn FnOnce(&mut Registry) -> CellOutput + Send + 'a>;
type AssembleFn<'a> = Box<dyn FnOnce(Vec<CellOutput>) -> (String, JsonValue) + 'a>;

/// One independent unit of work: a label (for metrics) and the closure
/// that computes the cell against a worker-private registry.
pub struct Cell<'a> {
    label: String,
    run: CellFn<'a>,
}

impl std::fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell").field("label", &self.label).finish()
    }
}

impl<'a> Cell<'a> {
    /// A cell computing `f`. The closure's return value is buffered until
    /// the owning experiment's `assemble` runs.
    pub fn new<T: Send + 'static>(
        label: impl Into<String>,
        f: impl FnOnce(&mut Registry) -> T + Send + 'a,
    ) -> Self {
        Cell {
            label: label.into(),
            run: Box::new(move |reg| Box::new(f(reg)) as CellOutput),
        }
    }
}

/// One experiment: its independent cells plus the function that turns the
/// buffered cell outputs (in cell order) into the rendered table text and
/// the JSON report entry.
pub struct ExperimentPlan<'a> {
    /// Experiment name (the report key and the CLI name).
    pub name: String,
    cells: Vec<Cell<'a>>,
    assemble: AssembleFn<'a>,
}

impl std::fmt::Debug for ExperimentPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("name", &self.name)
            .field("cells", &self.cells.len())
            .finish()
    }
}

impl<'a> ExperimentPlan<'a> {
    /// A plan from cells and an assembly function.
    pub fn new(
        name: impl Into<String>,
        cells: Vec<Cell<'a>>,
        assemble: impl FnOnce(Vec<CellOutput>) -> (String, JsonValue) + 'a,
    ) -> Self {
        ExperimentPlan {
            name: name.into(),
            cells,
            assemble: Box::new(assemble),
        }
    }

    /// How many cells this plan fans out.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// One finished experiment, handed to the caller in plan order.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Experiment name.
    pub name: String,
    /// The rendered table text, exactly as a sequential run prints it.
    pub text: String,
    /// The `experiments.<name>` report entry.
    pub json: JsonValue,
    /// Summed busy time of the experiment's cells (CPU work, not wall
    /// time — at `jobs > 1` cells overlap).
    pub busy: Duration,
}

/// The number of workers to use when `--jobs` is not given.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// In-order completion tracker: buffers per-cell results and releases
/// experiments strictly in plan order.
struct Collector<'a> {
    names: Vec<String>,
    assemble: Vec<Option<AssembleFn<'a>>>,
    done: Vec<Vec<Option<DynDone>>>,
    next_emit: usize,
}

impl<'a> Collector<'a> {
    /// Records one finished cell, then assembles and emits every experiment
    /// that became ready, in plan order. Cell registries merge into
    /// `master` in cell order — completion order never matters.
    fn complete(
        &mut self,
        exp: usize,
        cell: usize,
        done: DynDone,
        master: &mut Registry,
        emit: &mut dyn FnMut(ExperimentOutput),
    ) {
        self.done[exp][cell] = Some(done);
        while self.next_emit < self.names.len()
            && self.done[self.next_emit].iter().all(Option::is_some)
        {
            let e = self.next_emit;
            let cells: Vec<DynDone> = std::mem::take(&mut self.done[e])
                .into_iter()
                .map(|c| c.expect("all cells done"))
                .collect();
            let mut busy = Duration::ZERO;
            let mut outputs = Vec::with_capacity(cells.len());
            for c in cells {
                master.merge(&c.registry);
                // Per-cell wall-time attribution: the stderr `[exp took
                // Ns]` lines are transient, but these spans surface in the
                // report's `timings` section even when stderr is discarded.
                obs::span::record(format!("cell.{}", c.label), c.busy);
                busy += c.busy;
                outputs.push(c.out);
            }
            let (text, json) = (self.assemble[e].take().expect("assemble once"))(outputs);
            obs::span::record(format!("experiment.{}", self.names[e]), busy);
            if obs::timeline::enabled() {
                obs::timeline::instant(&format!("emit.{}", self.names[e]), "sched");
            }
            emit(ExperimentOutput {
                name: self.names[e].clone(),
                text,
                json,
                busy,
            });
            self.next_emit += 1;
        }
    }
}

/// Runs every plan's cells on up to `jobs` workers and calls `emit` once
/// per experiment, in plan order, with output identical to `jobs == 1`.
///
/// Cells run through [`run_dynamic`], claimed in plan order, on at most
/// one worker per cell. Worker-private registries merge into `master` in
/// cell order. With `jobs <= 1` no thread is spawned and cells run inline
/// in order — the exact pre-scheduler execution shape (`replay` forces
/// this path).
///
/// When `live` is given, each completed cell's private registry also
/// merges into the shared registry — *in completion order*, the moment the
/// cell finishes — plus a `sched.cell_ms` histogram and a
/// `sched.cell_ms.max` high-water gauge of per-cell wall time, so a
/// [`Sampler`](obs::Sampler) can stream progress while the run is going.
/// The live view is a wall-clock artifact like the `timings` section; the
/// deterministic outputs (`emit` order, `master` contents, tables, the
/// `experiments` report section) are byte-identical with or without it.
///
/// Returns the total number of cells executed.
pub fn run_plans_live<'a>(
    plans: Vec<ExperimentPlan<'a>>,
    jobs: usize,
    master: &mut Registry,
    live: Option<&SharedRegistry>,
    mut emit: impl FnMut(ExperimentOutput),
) -> usize {
    let mut collector = Collector {
        names: Vec::with_capacity(plans.len()),
        assemble: Vec::with_capacity(plans.len()),
        done: Vec::with_capacity(plans.len()),
        next_emit: 0,
    };
    // A cell's claim id indexes `slots`, its (experiment, cell) position.
    let mut slots = Vec::new();
    let mut queue = VecDeque::new();
    for (ei, plan) in plans.into_iter().enumerate() {
        collector.names.push(plan.name);
        collector.assemble.push(Some(plan.assemble));
        collector
            .done
            .push(plan.cells.iter().map(|_| None).collect());
        for (ci, cell) in plan.cells.into_iter().enumerate() {
            queue.push_back((slots.len() as u64, cell));
            slots.push((ei, ci));
        }
    }
    let total_cells = slots.len();
    let workers = jobs.max(1).min(total_cells.max(1));
    if let Some(live) = live {
        live.with(|r| {
            let g = r.gauge("sched.cells_total");
            r.set_gauge(g, total_cells as f64);
            let g = r.gauge("sched.jobs");
            r.set_gauge(g, workers as f64);
        });
    }
    run_dynamic(
        |_| queue.pop_front(),
        workers,
        live,
        |done: DynDone| {
            let (ei, ci) = slots[done.id as usize];
            collector.complete(ei, ci, done, master, &mut emit);
        },
    )
}

/// One finished dynamically-claimed cell, handed back in completion order.
pub struct DynDone {
    /// The id the claim source assigned (a grid cell id for sweeps).
    pub id: u64,
    /// Cell label.
    pub label: String,
    /// The cell's type-erased return value.
    pub out: CellOutput,
    /// The cell's private registry (counters/gauges/histograms it set).
    pub registry: Registry,
    /// Wall time on the executing thread.
    pub busy: Duration,
    /// Index of the thread that executed the cell.
    pub worker: usize,
}

impl std::fmt::Debug for DynDone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynDone")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("worker", &self.worker)
            .finish()
    }
}

/// Runs dynamically-claimed cells on up to `jobs` threads until the claim
/// source is exhausted.
///
/// Unlike [`run_plans_live`], the work list is not known up front: each idle
/// thread calls `next(thread_index)` — under a lock, so claim sources may
/// touch shared state freely — and executes whatever cell comes back.
/// The sweep engine's claim source hands out the grid's missing cells;
/// a `None` means the sweep is drained.
///
/// `on_done` runs on the calling thread in completion order. Callers that
/// need deterministic output must NOT derive it from that order — sweep
/// checkpoints are order-free (keyed by cell id) precisely so the final
/// merge can re-impose grid order.
///
/// Returns the number of cells executed.
pub fn run_dynamic<'a>(
    next: impl FnMut(usize) -> Option<(u64, Cell<'a>)> + Send,
    jobs: usize,
    live: Option<&SharedRegistry>,
    mut on_done: impl FnMut(DynDone),
) -> usize {
    let threads = jobs.max(1);
    let next = Mutex::new(next);
    if threads == 1 {
        let mut count = 0;
        loop {
            let job = (next.lock().unwrap())(0);
            let Some((id, cell)) = job else { break };
            on_done(run_cell(id, 0, cell, live));
            count += 1;
        }
        return count;
    }

    let (tx, rx) = mpsc::channel::<DynDone>();
    let mut count = 0;
    std::thread::scope(|s| {
        for w in 0..threads {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || {
                obs::timeline::set_thread_name(&format!("worker-{w}"));
                loop {
                    let job = (next.lock().unwrap())(w);
                    let Some((id, cell)) = job else { break };
                    if tx.send(run_cell(id, w, cell, live)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // The calling thread hands results on while workers keep claiming.
        for done in rx {
            on_done(done);
            count += 1;
        }
    });
    count
}

/// Bucket count of the live `sched.cell_ms` wall-time histogram.
const CELL_MS_BUCKETS: usize = 512;

/// Feeds one finished cell into the live-telemetry registry. Wall time is
/// attributed to the *executing* worker (`sched.worker.<w>.cell_ms`).
fn publish_live(live: &SharedRegistry, done: &DynDone) {
    live.merge(&done.registry);
    let ms = done.busy.as_millis() as u64;
    let worker = done.worker;
    live.with(|r| {
        let h = r.histogram("sched.cell_ms", CELL_MS_BUCKETS);
        r.observe(h, ms);
        let g = r.gauge("sched.cell_ms.max");
        if ms as f64 > r.gauge_value(g) {
            r.set_gauge(g, ms as f64);
        }
        let h = r.histogram(&format!("sched.worker.{worker}.cell_ms"), CELL_MS_BUCKETS);
        r.observe(h, ms);
        let c = r.counter(&format!("sched.worker.{worker}.cells"));
        r.inc(c);
    });
}

/// Runs one claimed cell on worker `worker` against a fresh private
/// registry, and feeds the result to `live` when given.
fn run_cell(id: u64, worker: usize, cell: Cell<'_>, live: Option<&SharedRegistry>) -> DynDone {
    let Cell { label, run } = cell;
    let mut registry = Registry::new();
    let cells = registry.counter("sched.cells");
    registry.inc(cells);
    let per_cell = registry.counter(&format!("sched.cell.{label}"));
    registry.inc(per_cell);
    // The timeline span opens on the executing thread, so the Chrome
    // trace track is the executor's even when the cell was stolen.
    let tl = if obs::timeline::enabled() {
        Some(obs::timeline::start(&format!("cell.{label}"), "cell"))
    } else {
        None
    };
    let t0 = Instant::now();
    let out = run(&mut registry);
    let busy = t0.elapsed();
    drop(tl);
    let done = DynDone {
        id,
        label,
        out,
        registry,
        busy,
        worker,
    };
    if let Some(live) = live {
        publish_live(live, &done);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan whose cells return `(tag, value)` pairs and whose assembly
    /// concatenates them — enough structure to detect any reordering.
    fn plan(name: &str, values: Vec<u64>, delay_ms: u64) -> ExperimentPlan<'static> {
        let cells = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                Cell::new(format!("{name}/{i}"), move |reg: &mut Registry| {
                    if delay_ms > 0 {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                    }
                    let c = reg.counter("test.total");
                    reg.add(c, v);
                    v
                })
            })
            .collect();
        ExperimentPlan::new(name, cells, |outs| {
            let vals: Vec<String> = outs
                .into_iter()
                .map(|o| o.downcast::<u64>().unwrap().to_string())
                .collect();
            let text = format!("{}\n", vals.join(","));
            (text, JsonValue::from(vals.join(",")))
        })
    }

    fn run(jobs: usize) -> (Vec<String>, String, Registry) {
        let plans = vec![
            // The first plan sleeps so later plans finish first under
            // parallel execution; emission order must not change.
            plan("slow", vec![1, 2, 3], 20),
            plan("mid", vec![10, 20], 5),
            plan("fast", vec![100, 200, 300, 400], 0),
        ];
        let mut master = Registry::new();
        let mut names = Vec::new();
        let mut text = String::new();
        let cells = run_plans_live(plans, jobs, &mut master, None, |out| {
            names.push(out.name);
            text.push_str(&out.text);
        });
        assert_eq!(cells, 9);
        (names, text, master)
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let (names1, text1, reg1) = run(1);
        assert_eq!(names1, vec!["slow", "mid", "fast"]);
        assert_eq!(text1, "1,2,3\n10,20\n100,200,300,400\n");
        for jobs in [2, 4, 8] {
            let (names, text, reg) = run(jobs);
            assert_eq!(names, names1, "emission order at jobs={jobs}");
            assert_eq!(text, text1, "text at jobs={jobs}");
            assert_eq!(
                reg.to_json().to_json(),
                reg1.to_json().to_json(),
                "merged registry at jobs={jobs}"
            );
        }
    }

    #[test]
    fn merged_registry_sums_cell_counters() {
        let (_, _, reg) = run(4);
        assert_eq!(reg.counter_by_name("test.total"), Some(1036));
        assert_eq!(reg.counter_by_name("sched.cells"), Some(9));
        assert_eq!(reg.counter_by_name("sched.cell.mid/1"), Some(1));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn live_registry_tracks_progress_without_changing_output() {
        let live = SharedRegistry::new();
        let plans = vec![
            plan("slow", vec![1, 2, 3], 20),
            plan("mid", vec![10, 20], 5),
            plan("fast", vec![100, 200, 300, 400], 0),
        ];
        let mut master = Registry::new();
        let mut text = String::new();
        run_plans_live(plans, 4, &mut master, Some(&live), |out| {
            text.push_str(&out.text);
        });
        // Deterministic output is untouched by the live sink.
        let (_, text_ref, master_ref) = run(1);
        assert_eq!(text, text_ref);
        assert_eq!(
            master.counter_by_name("test.total"),
            master_ref.counter_by_name("test.total")
        );
        // The live view saw every cell plus the wall-time instrumentation.
        let snap = live.snapshot();
        assert_eq!(snap.counter_by_name("sched.cells"), Some(9));
        assert_eq!(snap.gauge_by_name("sched.cells_total"), Some(9.0));
        assert_eq!(snap.gauge_by_name("sched.jobs"), Some(4.0));
        let h = snap.histogram_by_name("sched.cell_ms").expect("cell_ms");
        assert_eq!(h.total(), 9);
        assert!(snap.gauge_by_name("sched.cell_ms.max").unwrap() >= 20.0);
    }

    #[test]
    fn dynamic_scheduler_drains_claim_source_at_any_thread_count() {
        for jobs in [1, 4] {
            let mut ids = (0..37u64).collect::<VecDeque<_>>();
            let live = SharedRegistry::new();
            let mut seen = Vec::new();
            let mut total = 0u64;
            let ran = run_dynamic(
                move |_w| {
                    let id = ids.pop_front()?;
                    Some((
                        id,
                        Cell::new(format!("dyn/{id}"), move |reg: &mut Registry| {
                            let c = reg.counter("dyn.sum");
                            reg.add(c, id);
                            id * 2
                        }),
                    ))
                },
                jobs,
                Some(&live),
                |done| {
                    let v = *done.out.downcast::<u64>().unwrap();
                    assert_eq!(v, done.id * 2);
                    assert!(done.worker < jobs.max(1));
                    total += done.registry.counter_by_name("dyn.sum").unwrap();
                    seen.push(done.id);
                },
            );
            assert_eq!(ran, 37, "jobs={jobs}");
            assert_eq!(total, (0..37).sum::<u64>());
            seen.sort_unstable();
            assert_eq!(seen, (0..37).collect::<Vec<_>>());
            // Executor attribution: every executed cell landed in some
            // per-worker wall-time histogram.
            let snap = live.snapshot();
            let attributed: u64 = (0..jobs.max(1))
                .filter_map(|w| snap.counter_by_name(&format!("sched.worker.{w}.cells")))
                .sum();
            assert_eq!(attributed, 37);
        }
    }

    #[test]
    fn per_cell_spans_are_recorded() {
        let _ = run(2);
        let spans = obs::span::snapshot();
        for cell in ["cell.slow/0", "cell.mid/1", "cell.fast/3"] {
            assert!(
                spans.iter().any(|(n, s)| n == cell && s.count > 0),
                "missing span {cell}"
            );
        }
        assert!(spans
            .iter()
            .any(|(n, s)| n == "experiment.slow" && s.count > 0));
    }
}
