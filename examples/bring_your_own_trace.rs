//! Run the predictors and the pipeline on an external trace file.
//!
//! ```text
//! cargo run -p harness --release --example bring_your_own_trace [trace.txt]
//! ```
//!
//! Without an argument, the example first *writes* a demonstration trace
//! (2k instructions of the twolf model) to a temporary file, then reads it
//! back — showing the full round trip any external tracer would use. The
//! format is documented in `workloads::trace`.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use gdiff::GDiffPredictor;
use pipeline::{NoVp, PipelineConfig, Simulator};
use predictors::{Capacity, StridePredictor, ValuePredictor};
use workloads::trace::{read_trace, write_trace};
use workloads::{Benchmark, DynInst};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            let p = std::env::temp_dir().join("gdiff_demo_trace.txt");
            let p = p.to_string_lossy().into_owned();
            println!("no trace given; writing a demo trace to {p}");
            let f = BufWriter::new(File::create(&p)?);
            write_trace(f, Benchmark::Twolf.build(42).take(200_000))?;
            p
        }
    };

    println!("reading {path} ...");
    let trace: Vec<DynInst> =
        read_trace(BufReader::new(File::open(&path)?)).collect::<Result<_, _>>()?;
    let values = trace.iter().filter(|i| i.produces_value()).count();
    println!(
        "  {} instructions, {} value-producing\n",
        trace.len(),
        values
    );

    // Profile the value stream.
    let mut stride = StridePredictor::new(Capacity::Entries(8192));
    let mut gd = GDiffPredictor::new(Capacity::Entries(8192), 8);
    let (mut s_ok, mut g_ok) = (0u64, 0u64);
    for i in trace.iter().filter(|i| i.produces_value()) {
        if stride.step(i.pc, i.value) == Some(i.value) {
            s_ok += 1;
        }
        if gd.step(i.pc, i.value) == Some(i.value) {
            g_ok += 1;
        }
    }
    println!("profile accuracy over the trace:");
    println!(
        "  local stride: {:5.1}%",
        100.0 * s_ok as f64 / values.max(1) as f64
    );
    println!(
        "  gdiff (q=8):  {:5.1}%",
        100.0 * g_ok as f64 / values.max(1) as f64
    );

    // And run it through the Table 1 machine.
    let n = trace.len() as u64;
    let stats = Simulator::new(PipelineConfig::r10k(), Box::new(NoVp)).run(trace, n / 10, u64::MAX);
    println!(
        "\npipeline (Table 1 config): IPC {:.2}, D-miss {:4.1}%, branch mispredict {:4.1}%",
        stats.ipc(),
        100.0 * stats.dcache_miss_rate,
        100.0 * stats.branch_mispredict_rate
    );
    Ok(())
}
