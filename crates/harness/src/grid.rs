//! Declarative sweep grids: the design-space spec behind `harness sweep`.
//!
//! A grid is the cross product of gDiff design parameters — queue order,
//! table depth, confidence threshold, value delay *T* — over a set of
//! benchmarks. The paper samples this space at a handful of points
//! (Figures 8–10, the ablations); a grid names thousands of points at
//! once so the sweep engine can map the full accuracy/coverage-vs-bits
//! Pareto frontier.
//!
//! # Spec syntax
//!
//! A spec is `key=v1,v2,...` clauses separated by `;` or newlines, with
//! `#` comments — equally valid inline on the command line or as a file:
//!
//! ```text
//! # orders × depths × thresholds × delays × benches
//! order=2,4,8,16
//! depth=0,1024,8192        # table entries, 0 = unbounded
//! threshold=0,2,4          # confidence gate, 0 = ungated
//! delay=0,1,2              # §3.1's T
//! bench=all
//! ```
//!
//! Unmentioned keys take single-point defaults (the paper's operating
//! point), so a spec only names the axes it actually sweeps.
//!
//! # Identity
//!
//! Cell ids are indices into the expansion in **fixed nested order**
//! (order → depth → threshold → delay → bench innermost), and
//! [`GridSpec::canonical`] renders the whole grid — run sizing included —
//! as one deterministic string whose CRC32 is the grid hash. Checkpoint
//! segments carry that hash, which is what makes "resume this sweep"
//! well-defined: same hash ⇒ same cell-id meaning, bit for bit.

use gdiff::GDiffEntry;
use predictors::PcTable;
use workloads::Benchmark;

use crate::RunParams;

/// Queue orders above [`gdiff::MAX_ORDER`] cannot be built.
const MAX_ORDER: usize = 64;
/// Confidence counters saturate at 7 (3-bit, the paper's mechanism), so a
/// higher threshold would gate everything forever.
const MAX_THRESHOLD: u8 = 7;
/// Fewer measured producers than this gives meaningless accuracy.
const MIN_MEASURE: u64 = 1_000;

/// A parsed, validated sweep grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// Queue orders (gDiff `n`).
    pub orders: Vec<usize>,
    /// Prediction-table depths in entries; 0 = unbounded.
    pub depths: Vec<usize>,
    /// Confidence thresholds; 0 = ungated.
    pub thresholds: Vec<u8>,
    /// Value delays (§3.1's *T*).
    pub delays: Vec<usize>,
    /// Benchmarks.
    pub benches: Vec<Benchmark>,
    /// Run sizing (seed, warmup, measure) shared by every cell.
    pub params: RunParams,
}

/// One expanded grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCell {
    /// The cell's index in canonical expansion order — its identity in
    /// checkpoints.
    pub id: u32,
    /// Queue order.
    pub order: usize,
    /// Table depth in entries; 0 = unbounded.
    pub depth: usize,
    /// Confidence threshold; 0 = ungated.
    pub threshold: u8,
    /// Value delay *T*.
    pub delay: usize,
    /// Benchmark.
    pub bench: Benchmark,
}

impl GridCell {
    /// Human-readable cell label, used for scheduler spans and reports:
    /// `o<order>/d<depth>/t<threshold>/T<delay>/<bench>`.
    pub fn label(&self) -> String {
        format!(
            "o{}/d{}/t{}/T{}/{}",
            self.order,
            self.depth,
            self.threshold,
            self.delay,
            self.bench.name()
        )
    }

    /// The cell's configuration coordinates without the benchmark — the
    /// aggregation key for Pareto analysis.
    pub fn config(&self) -> (usize, usize, u8, usize) {
        (self.order, self.depth, self.threshold, self.delay)
    }
}

impl GridSpec {
    /// Parses a spec from text (inline argument or file contents), using
    /// `base` for the seed and as the default run sizing.
    pub fn parse(text: &str, base: RunParams) -> Result<GridSpec, String> {
        let mut orders = None;
        let mut depths = None;
        let mut thresholds = None;
        let mut delays = None;
        let mut benches = None;
        let mut warmup = None;
        let mut measure = None;

        for raw in text.split(['\n', ';']) {
            let clause = match raw.find('#') {
                Some(at) => &raw[..at],
                None => raw,
            }
            .trim();
            if clause.is_empty() {
                continue;
            }
            let (key, values) = clause
                .split_once('=')
                .ok_or_else(|| format!("grid clause '{clause}' is not key=values"))?;
            let key = key.trim();
            let values = values.trim();
            if values.is_empty() {
                return Err(format!("grid key '{key}' has no values"));
            }
            match key {
                "order" => set_list(&mut orders, key, parse_list(key, values)?)?,
                "depth" => set_list(&mut depths, key, parse_list(key, values)?)?,
                "threshold" => set_list(&mut thresholds, key, parse_list(key, values)?)?,
                "delay" => set_list(&mut delays, key, parse_list(key, values)?)?,
                "bench" => set_list(&mut benches, key, parse_benches(values)?)?,
                "warmup" => set_list(&mut warmup, key, vec![parse_one::<u64>(key, values)?])?,
                "measure" => set_list(&mut measure, key, vec![parse_one::<u64>(key, values)?])?,
                _ => return Err(format!("unknown grid key '{key}'")),
            }
        }

        let spec = GridSpec {
            orders: orders.unwrap_or_else(|| vec![8]),
            depths: depths.unwrap_or_else(|| vec![8 * 1024]),
            thresholds: thresholds.unwrap_or_else(|| vec![4]),
            delays: delays.unwrap_or_else(|| vec![0]),
            benches: benches.unwrap_or_else(|| Benchmark::ALL.to_vec()),
            params: RunParams {
                seed: base.seed,
                warmup: warmup.map_or(base.warmup, |w| w[0]),
                measure: measure.map_or(base.measure, |m| m[0]),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        for &o in &self.orders {
            if o == 0 || o > MAX_ORDER {
                return Err(format!("grid order {o} out of range 1..={MAX_ORDER}"));
            }
        }
        for &t in &self.thresholds {
            if t > MAX_THRESHOLD {
                return Err(format!(
                    "grid threshold {t} exceeds the {MAX_THRESHOLD}-saturating confidence counter"
                ));
            }
        }
        if self.params.measure < MIN_MEASURE {
            return Err(format!(
                "grid measure {} is below the {MIN_MEASURE} minimum",
                self.params.measure
            ));
        }
        Ok(())
    }

    /// Number of cells in the expansion.
    pub fn cell_count(&self) -> u32 {
        (self.orders.len()
            * self.depths.len()
            * self.thresholds.len()
            * self.delays.len()
            * self.benches.len()) as u32
    }

    /// The cell at canonical index `id`. Panics if out of range.
    pub fn cell(&self, id: u32) -> GridCell {
        let mut rest = id as usize;
        let take = |rest: &mut usize, len: usize| {
            let i = *rest % len;
            *rest /= len;
            i
        };
        // Innermost axis varies fastest: bench, delay, threshold, depth,
        // order — matching nested for-loops in declaration order.
        let bi = take(&mut rest, self.benches.len());
        let di = take(&mut rest, self.delays.len());
        let ti = take(&mut rest, self.thresholds.len());
        let pi = take(&mut rest, self.depths.len());
        let oi = take(&mut rest, self.orders.len());
        assert!(rest == 0, "cell id {id} out of range");
        GridCell {
            id,
            order: self.orders[oi],
            depth: self.depths[pi],
            threshold: self.thresholds[ti],
            delay: self.delays[di],
            bench: self.benches[bi],
        }
    }

    /// All cells in canonical order.
    pub fn cells(&self) -> impl Iterator<Item = GridCell> + '_ {
        (0..self.cell_count()).map(|id| self.cell(id))
    }

    /// The grid's canonical text form: schema line, run sizing, then one
    /// line per axis. Written to `grid.spec` in the checkpoint directory
    /// and hashed ([`GridSpec::hash`]) into every checkpoint segment.
    pub fn canonical(&self) -> String {
        let mut s = String::from("gdiff-sweep-grid/v1\n");
        s.push_str(&format!("seed={}\n", self.params.seed));
        s.push_str(&format!("warmup={}\n", self.params.warmup));
        s.push_str(&format!("measure={}\n", self.params.measure));
        s.push_str(&format!("order={}\n", join(&self.orders)));
        s.push_str(&format!("depth={}\n", join(&self.depths)));
        s.push_str(&format!("threshold={}\n", join(&self.thresholds)));
        s.push_str(&format!("delay={}\n", join(&self.delays)));
        let benches: Vec<&str> = self.benches.iter().map(|b| b.name()).collect();
        s.push_str(&format!("bench={}\n", benches.join(",")));
        s
    }

    /// CRC32 of the canonical form — the identity checkpoints carry.
    pub fn hash(&self) -> u32 {
        tracefile::crc32::crc32(self.canonical().as_bytes())
    }

    /// Rough per-sweep cost facts for `--dry-run`: producers simulated
    /// per cell, and the byte footprint of the largest table swept.
    ///
    /// The footprint is the deepest table's real storage, priced without
    /// building it: every slot holds a tag and a full inline
    /// [`GDiffEntry`], whatever the order, so the order does not enter. An
    /// unbounded depth is estimated at 64K entries.
    pub fn footprint(&self) -> (u64, u64) {
        let per_cell = self.params.warmup + self.params.measure;
        let max_depth = self
            .depths
            .iter()
            .map(|&d| if d == 0 { 64 * 1024 } else { d })
            .max()
            .unwrap_or(8 * 1024);
        (per_cell, PcTable::<GDiffEntry>::bounded_bytes(max_depth))
    }
}

fn join<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn set_list<T>(slot: &mut Option<Vec<T>>, key: &str, values: Vec<T>) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("grid key '{key}' given twice"));
    }
    *slot = Some(values);
    Ok(())
}

fn parse_one<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse::<T>()
        .map_err(|_| format!("grid {key} value '{}' is not a number", value.trim()))
}

fn parse_list<T: std::str::FromStr + PartialEq>(key: &str, values: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for v in values.split(',') {
        let parsed = parse_one::<T>(key, v)?;
        if !out.contains(&parsed) {
            out.push(parsed);
        }
    }
    Ok(out)
}

fn parse_benches(values: &str) -> Result<Vec<Benchmark>, String> {
    let mut out = Vec::new();
    for v in values.split(',') {
        let v = v.trim();
        if v == "all" {
            for b in Benchmark::ALL {
                if !out.contains(&b) {
                    out.push(b);
                }
            }
            continue;
        }
        let b = Benchmark::from_name(v).ok_or_else(|| format!("unknown benchmark '{v}'"))?;
        if !out.contains(&b) {
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RunParams {
        RunParams::tiny()
    }

    #[test]
    fn defaults_are_single_point_paper_config() {
        let g = GridSpec::parse("", base()).unwrap();
        assert_eq!(g.orders, vec![8]);
        assert_eq!(g.depths, vec![8 * 1024]);
        assert_eq!(g.thresholds, vec![4]);
        assert_eq!(g.delays, vec![0]);
        assert_eq!(g.benches.len(), 10);
        assert_eq!(g.cell_count(), 10);
    }

    #[test]
    fn expansion_order_is_nested_and_stable() {
        let g = GridSpec::parse("order=2,4;depth=0,1024;bench=gcc,gap", base()).unwrap();
        assert_eq!(g.cell_count(), 8);
        let cells: Vec<GridCell> = g.cells().collect();
        // bench varies fastest, then depth, then order.
        assert_eq!(cells[0].label(), "o2/d0/t4/T0/gcc");
        assert_eq!(cells[1].label(), "o2/d0/t4/T0/gap");
        assert_eq!(cells[2].label(), "o2/d1024/t4/T0/gcc");
        assert_eq!(cells[4].label(), "o4/d0/t4/T0/gcc");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u32);
        }
    }

    #[test]
    fn canonical_form_and_hash_pin_identity() {
        let g = GridSpec::parse("order=2,4;threshold=0,4;delay=1;bench=mcf", base()).unwrap();
        assert_eq!(
            g.canonical(),
            "gdiff-sweep-grid/v1\nseed=42\nwarmup=5000\nmeasure=40000\n\
             order=2,4\ndepth=8192\nthreshold=0,4\ndelay=1\nbench=mcf\n"
        );
        assert_eq!(g.hash(), 0xD438_8349, "CRC32 of the canonical form");
        // The same grid spelled differently is the same identity.
        let same = GridSpec::parse("bench=mcf\ndelay=1,1;threshold=0,4;order=2,4", base()).unwrap();
        assert_eq!(same.canonical(), g.canonical());
        let other = GridSpec::parse("order=2,4;threshold=0,4;delay=2;bench=mcf", base()).unwrap();
        assert_ne!(g.hash(), other.hash());
    }

    #[test]
    fn footprint_is_the_built_tables_storage() {
        let g = GridSpec::parse("order=2,8;depth=1024,8192", base()).unwrap();
        let built = gdiff::GDiffCore::new(predictors::Capacity::Entries(8192), 8);
        assert_eq!(g.footprint().1, built.geometry().bytes);
        let kib = format!("largest table: ~{} KiB", built.geometry().bytes / 1024);
        assert!(crate::render_dry_run(&g).contains(&kib), "{kib}");
    }

    #[test]
    fn comments_and_newlines_parse() {
        let g = GridSpec::parse(
            "# a grid\norder=2,4 # two orders\n\ndepth=512;delay=0,1",
            base(),
        )
        .unwrap();
        assert_eq!(g.orders, vec![2, 4]);
        assert_eq!(g.depths, vec![512]);
        assert_eq!(g.delays, vec![0, 1]);
    }

    #[test]
    fn rejects_bad_specs() {
        for (spec, needle) in [
            ("orderr=2", "unknown grid key"),
            ("order=2;order=4", "given twice"),
            ("order=", "no values"),
            ("order=two", "not a number"),
            ("order=0", "out of range"),
            ("order=65", "out of range"),
            ("threshold=9", "confidence counter"),
            ("bench=nope", "unknown benchmark"),
            ("measure=10", "below"),
            ("order 2", "not key=values"),
        ] {
            let err = GridSpec::parse(spec, base()).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn duplicate_values_collapse() {
        let g = GridSpec::parse("order=8,8,8;bench=gcc,all", base()).unwrap();
        assert_eq!(g.orders, vec![8]);
        assert_eq!(g.benches.len(), 10);
        assert_eq!(g.benches[0], Benchmark::Gcc);
    }
}
