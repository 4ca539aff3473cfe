//! The `serve` workload: an in-process gdiffd on a private socket, driven
//! by one closed-loop client (one thread, one connection at a time, one
//! chunk in flight).
//!
//! Ten sessions, one per benchmark, each streaming its trace as 4096-record
//! wire chunks. A unit is one served chunk, timed from framing the CHUNK
//! to reading its ACK; every session's identical chunk stream is replayed
//! once per pass, so each chunk gets a best time. This is the only
//! workload where `tracefile` decode, framing/CRC and the reader→worker
//! handoff show.
//!
//! Traced, each pass also times the pieces of a chunk's service
//! standalone — wire decode, frame encode+parse, `SessionCore::feed_chunk`
//! — and the bare gDiff loop over each session's producers; what the ACK
//! time holds beyond them is socket, channel and wakeup time.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gdiff::GDiffPredictor;
use harness::profile::run_profile_on;
use harness::RunParams;
use obs::{timeline, JsonValue};
use predictors::{Capacity, PredictorStats};
use serve::{client, frame, ServeConfig, Server, ServerHandle, SessionCore, SessionParams};
use tracefile::{decode_wire_chunk, encode_wire_chunk, DEFAULT_CHUNK_CAP};
use workloads::{Benchmark, DynInst};

use crate::inputs::{gen_unit, raw, Checks, VecSource};
use crate::profile::bare_loop;
use crate::timing::{median, passes, tail, timed, Best};
use crate::{Outcome, Scale};

/// Records per wire chunk.
const CHUNK_LEN: usize = 4_096;

/// A daemon that is always shut down and its socket removed, also when
/// the benchmark fails part way.
struct Daemon {
    handle: Option<ServerHandle>,
    path: PathBuf,
}

impl Daemon {
    fn start(path: &Path) -> std::io::Result<Daemon> {
        let server = Server::bind(path, ServeConfig::default())?;
        Ok(Daemon {
            handle: Some(server.spawn()),
            path: path.to_path_buf(),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.request_shutdown();
            handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One benchmark's session: its wire chunks and what the daemon must
/// answer to them.
struct Session {
    params: SessionParams,
    chunks: Vec<Vec<u8>>,
    /// Expected ACK payload per chunk.
    acks: Vec<JsonValue>,
    /// Expected final REPORT payload.
    report: JsonValue,
    /// `run_profile_on` over the same records.
    reference: PredictorStats,
    /// Every value producer, for the bare gDiff loop (traced runs only).
    producers: Vec<DynInst>,
}

fn sizes(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (100, 20_000),
        Scale::Probe => (8, 2_000),
    }
}

/// Builds a session from the records (outside any timing): the expected
/// ACKs from a reference [`SessionCore`], and `run_profile_on` over the
/// same records, which the final REPORT must match bit for bit.
fn session(
    bench: Benchmark,
    seed: u64,
    warmup: u64,
    insts: Vec<DynInst>,
    chunks: Vec<Vec<u8>>,
    traced: bool,
    checks: &mut Checks,
) -> Session {
    let producers: Vec<DynInst> = insts
        .iter()
        .copied()
        .filter(DynInst::produces_value)
        .collect();
    let params = SessionParams {
        name: bench.name().to_string(),
        warmup,
        ..SessionParams::default()
    };
    let mut core = SessionCore::new(params.clone());
    let acks = insts
        .chunks(CHUNK_LEN)
        .map(|c| {
            core.feed_chunk(c);
            core.progress_json()
        })
        .collect();
    let report = core.report_json("bye");
    let run = RunParams {
        seed,
        warmup,
        measure: producers.len() as u64 - warmup,
    };
    let source = VecSource::new(vec![(bench, &insts)]);
    let reference = run_profile_on(
        &source,
        bench,
        &mut GDiffPredictor::new(Capacity::Unbounded, params.order),
        run,
    );
    checks.check(report_matches(&report, &reference), || {
        format!("serve {bench}: session core disagrees with run_profile_on")
    });
    Session {
        params,
        chunks,
        acks,
        report,
        reference,
        producers: if traced { producers } else { Vec::new() },
    }
}

/// Whether a REPORT payload carries exactly the one-shot run's counts and
/// ratios.
fn report_matches(report: &JsonValue, stats: &PredictorStats) -> bool {
    let num = |k: &str| report.path(k).and_then(JsonValue::as_f64);
    let coverage = stats.predicted() as f64 / stats.total() as f64;
    num("total") == Some(stats.total() as f64)
        && num("predicted") == Some(stats.predicted() as f64)
        && num("correct") == Some(stats.correct() as f64)
        && num("accuracy").map(f64::to_bits) == Some(stats.accuracy().to_bits())
        && num("coverage").map(f64::to_bits) == Some(coverage.to_bits())
}

/// Streams one session through the daemon, one chunk in flight, recording
/// each chunk's CHUNK→ACK time in `best` at `base + seq`. Every ACK and
/// the REPORT are checked; a BUSY or ERROR frame fails the operation and
/// abandons the replay, and BUSY frames are counted in `busy`.
fn replay(
    path: &Path,
    s: &Session,
    base: usize,
    best: &mut Best,
    spans: bool,
    busy: &mut u64,
    checks: &mut Checks,
) -> Result<(), String> {
    let name = &s.params.name;
    let (mut r, mut w) = client::connect(path).map_err(|e| format!("connect: {e}"))?;
    frame::write_json(&mut w, frame::HELLO, &s.params.to_hello()).map_err(|e| e.to_string())?;
    let welcome = frame::read_frame(&mut r).map_err(|e| e.to_string())?;
    if welcome.ftype != frame::WELCOME {
        return Err(format!(
            "{} instead of welcome",
            frame::type_name(welcome.ftype)
        ));
    }
    for (seq, wire) in s.chunks.iter().enumerate() {
        let t0 = Instant::now();
        let span = spans.then(|| timeline::start(&format!("{name}/chunk{seq}"), "serve"));
        let payload = frame::chunk_payload(seq as u64, wire);
        frame::write_frame(&mut w, frame::CHUNK, &payload).map_err(|e| e.to_string())?;
        let reply = frame::read_frame(&mut r).map_err(|e| e.to_string())?;
        drop(span);
        let secs = t0.elapsed().as_secs_f64();
        match reply.ftype {
            frame::ACK => {
                let ok = frame::json_payload(&reply).ok().as_ref() == Some(&s.acks[seq]);
                checks.check(ok, || format!("serve {name}: chunk {seq} ACK differs"));
                best.observe(base + seq, secs);
            }
            other => {
                *busy += u64::from(other == frame::BUSY);
                return Err(format!("chunk {seq} drew {}", frame::type_name(other)));
            }
        }
    }
    frame::write_frame(&mut w, frame::BYE, &[]).map_err(|e| e.to_string())?;
    let reply = frame::read_frame(&mut r).map_err(|e| e.to_string())?;
    let report = frame::json_payload(&reply).ok();
    let ok = reply.ftype == frame::REPORT
        && report.as_ref() == Some(&s.report)
        && report
            .as_ref()
            .is_some_and(|r| report_matches(r, &s.reference));
    checks.check(ok, || {
        format!("serve {name}: REPORT differs from run_profile_on")
    });
    Ok(())
}

/// Times `f` as one layer unit inside a timeline span; the span's own
/// cost stays outside the measured time.
fn layer_unit<T>(name: &str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = timeline::start(name, layer);
    timed(f)
}

/// Runs the workload for `budget` and reports its metrics.
pub fn drive(seed: u64, budget: std::time::Duration, scale: Scale, traced: bool) -> Outcome {
    let (chunks_per_session, warmup) = sizes(scale);
    let per_session = chunks_per_session * CHUNK_LEN;
    let benches = Benchmark::ALL.len();
    let mut checks = Checks::default();
    let path = PathBuf::from(format!(
        "{}/gdiffd-{}.sock",
        crate::OUT_DIR,
        std::process::id()
    ));

    // Set-up units: each benchmark's generation and wire encoding, and the
    // daemon bind. Every pass repeats them (see `inputs::rebuild`).
    let build = |bench: Benchmark, gen: &mut Best, enc: &mut Best, i: usize| {
        let (insts, secs) = gen_unit(bench, || raw(bench, seed, per_session));
        gen.observe(i, secs);
        let (chunks, secs) = layer_unit(&format!("{bench}/encode"), "tracefile", || {
            insts
                .chunks(CHUNK_LEN)
                .map(|c| encode_wire_chunk(c, 0))
                .collect::<Vec<_>>()
        });
        enc.observe(i, secs);
        (insts, chunks)
    };
    let bind_one = |path: &Path, bind: &mut Best| {
        let (started, secs) = timed(|| Daemon::start(path));
        bind.observe(0, secs);
        started.map_err(|e| format!("bind {}: {e}", path.display()))
    };
    let mut gen = Best::new(benches);
    let mut enc = Best::new(benches);
    let mut bind = Best::new(1);
    let sessions: Vec<Session> = Benchmark::ALL
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let (insts, chunks) = build(bench, &mut gen, &mut enc, i);
            session(bench, seed, warmup, insts, chunks, traced, &mut checks)
        })
        .collect();
    let daemon = match bind_one(&path, &mut bind) {
        Ok(d) => d,
        Err(e) => {
            checks.check(false, || format!("serve: {e}"));
            return Outcome::failed(checks);
        }
    };
    let spare = path.with_extension("spare.sock");

    let n_chunks = benches * chunks_per_session;
    let mut ack = Best::new(n_chunks);
    let mut spanned = Best::new(n_chunks);
    let mut decode = Best::new(n_chunks);
    let mut framing = Best::new(n_chunks);
    let mut feed = Best::new(n_chunks);
    let mut bare = Best::new(benches);
    let mut busy = 0u64;
    let mut decoded = Vec::new();

    let n = passes(budget, 3, |_| {
        match bind_one(&spare, &mut bind) {
            Ok(d) => drop(d),
            Err(e) => checks.check(false, || format!("serve: {e}")),
        }
        for (s, sess) in sessions.iter().enumerate() {
            let base = s * chunks_per_session;
            let name = &sess.params.name;
            let (_, chunks) = build(Benchmark::ALL[s], &mut gen, &mut enc, s);
            checks.check(chunks == sess.chunks, || {
                format!("serve {name}: chunks rebuilt from the same seed differ")
            });
            if let Err(e) = replay(
                &daemon.path,
                sess,
                base,
                &mut ack,
                false,
                &mut busy,
                &mut checks,
            ) {
                checks.check(false, || format!("serve {name}: {e}"));
            }
            if !traced {
                continue;
            }
            let mut core = SessionCore::new(sess.params.clone());
            for (seq, wire) in sess.chunks.iter().enumerate() {
                let unit = base + seq;
                let (ok, secs) = layer_unit(&format!("{name}/decode{seq}"), "tracefile", || {
                    let mut out = Vec::new();
                    decode_wire_chunk(wire, DEFAULT_CHUNK_CAP, &mut out).is_ok()
                        && out.len() == CHUNK_LEN
                });
                decode.observe(unit, secs);
                checks.check(ok, || format!("serve {name}: chunk {seq} does not decode"));

                let (ok, secs) = layer_unit(&format!("{name}/frame{seq}"), "serve", || {
                    let payload = frame::chunk_payload(seq as u64, wire);
                    let bytes = frame::encode_frame(frame::CHUNK, &payload);
                    frame::read_frame(&mut bytes.as_slice()).is_ok_and(|f| {
                        frame::split_chunk_payload(&f.payload)
                            .is_ok_and(|(q, body)| q == seq as u64 && body == wire.as_slice())
                    })
                });
                framing.observe(unit, secs);
                checks.check(ok, || format!("serve {name}: chunk {seq} frame round trip"));

                decoded.clear();
                let ok = decode_wire_chunk(wire, DEFAULT_CHUNK_CAP, &mut decoded).is_ok();
                let ((), secs) = layer_unit(&format!("{name}/feed{seq}"), "serve", || {
                    core.feed_chunk(&decoded)
                });
                feed.observe(unit, secs);
                checks.check(ok && core.progress_json() == sess.acks[seq], || {
                    format!("serve {name}: chunk {seq} feed differs")
                });
            }
            let (correct, secs) = layer_unit(&format!("{name}/gdiff-q8"), "gdiff", || {
                let mut p = GDiffPredictor::new(Capacity::Unbounded, sess.params.order);
                bare_loop(&mut p, &sess.producers, warmup)
            });
            bare.observe(s, secs);
            checks.check(correct == sess.reference.correct(), || {
                format!("serve {name}: bare gDiff loop disagrees with the report")
            });
            // The layer units above separate this replay from the plain
            // one: the daemon drops a session from its table only after
            // sending the REPORT, so an immediate HELLO under the same
            // name can be refused as a duplicate.
            if let Err(e) = replay(
                &daemon.path,
                sess,
                base,
                &mut spanned,
                true,
                &mut busy,
                &mut checks,
            ) {
                checks.check(false, || format!("serve {name}: traced replay: {e}"));
            }
        }
    });
    drop(daemon);
    eprintln!("serve: {n} passes over {n_chunks} chunks");

    let records = (benches * per_session) as f64;
    let (tail_pct, tail_s) = tail(ack.values());
    eprintln!("serve: unit_tail_ms is p{tail_pct:.1} of {n_chunks} chunk units");
    let mean = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).sum::<f64>() / benches as f64;
    let e2e = vec![
        ("setup_s", gen.sum() + enc.sum() + bind.sum()),
        ("insts_per_s", records / ack.sum()),
        ("unit_p50_ms", median(ack.values()) * 1e3),
        ("unit_tail_ms", tail_s * 1e3),
        ("accuracy", mean(&|s| s.reference.accuracy())),
        (
            "coverage",
            mean(&|s| s.reference.predicted() as f64 / s.reference.total() as f64),
        ),
    ];

    let mut layers = vec![("workloads.gen_ns_per_inst", gen.sum() / records * 1e9)];
    if traced {
        let wire_bytes: usize = sessions.iter().flat_map(|s| &s.chunks).map(Vec::len).sum();
        let producers: usize = sessions.iter().map(|s| s.producers.len()).sum();
        let residual = ack.sum() - decode.sum() - framing.sum() - feed.sum();
        layers.extend([
            ("tracefile.encode_ns_per_inst", enc.sum() / records * 1e9),
            ("tracefile.decode_ns_per_inst", decode.sum() / records * 1e9),
            ("tracefile.bytes_per_inst", wire_bytes as f64 / records),
            (
                "gdiff.q8_ns_per_producer",
                bare.sum() / producers as f64 * 1e9,
            ),
            ("serve.feed_ns_per_inst", feed.sum() / records * 1e9),
            (
                "serve.frame_ns_per_chunk",
                framing.sum() / n_chunks as f64 * 1e9,
            ),
            (
                "serve.residual_us_per_chunk",
                residual / n_chunks as f64 * 1e6,
            ),
            ("serve.busy_frames", busy as f64),
            ("trace.overhead", ack.sum() / spanned.sum()),
        ]);
    }
    Outcome {
        checks,
        e2e,
        layers,
    }
}
