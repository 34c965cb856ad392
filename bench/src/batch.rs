//! `batch_service`: a seeded manifest through `lbp_batch::service::
//! run_service` in a fresh state directory, with two workers and
//! checkpointing on. `results.jsonl` must hold an `ok` line per job and
//! be byte-identical in every iteration.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use lbp_batch::service::{run_service, ServiceOptions};
use lbp_batch::BatchJob;
use lbp_sim::Json;

use crate::csweep;
use crate::metrics::STALLS;
use crate::runner::{measure, Ctx, Iter, Outcome};
use crate::trace::Tracer;

/// Generated programs in the manifest (smoke tests use a handful).
const GENERATED: u64 = 300;
const GENERATED_QUICK: u64 = 6;
/// Every `DUP_EVERY`-th generated program is submitted twice.
const DUP_EVERY: usize = 2;
/// Every `WARM_EVERY`-th generated program is also submitted with a
/// functional warm phase of `WARM` instructions.
const WARM_EVERY: usize = 25;
const WARM: u64 = 500;
/// The long job: `examples/c/matmul.c` scaled to 64 harts. It is
/// submitted cold and with half of its 3 621 748 instructions warmed,
/// and both cross checkpoint boundaries.
const LONG_SOURCE: &str = include_str!("../inputs/matmul_h64.c");
const LONG_CORES: usize = 16;
const LONG_WARM: u64 = 1_800_000;
/// Worker threads of the service.
const WORKERS: usize = 2;
/// Cycles between checkpoints.
const CHECKPOINT_EVERY: u64 = 100_000;

struct State {
    manifest: String,
    jobs: Vec<BatchJob>,
    state_dir: PathBuf,
    opts: ServiceOptions,
    /// `results.jsonl` of the first iteration.
    first_results: Option<Vec<u8>>,
}

fn job_json(id: &str, program: &str, cores: usize, max_cycles: u64, warm: Option<u64>) -> Json {
    let mut fields = vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("program".to_owned(), Json::Str(program.to_owned())),
        ("cores".to_owned(), Json::U64(cores as u64)),
        ("max_cycles".to_owned(), Json::U64(max_cycles)),
    ];
    if let Some(w) = warm {
        fields.push(("warm".to_owned(), Json::U64(w)));
    }
    Json::Obj(fields)
}

/// Writes the corpus into `<work>/inputs` and returns the manifest text.
fn write_inputs(ctx: &Ctx, tr: &mut Tracer) -> Result<(String, PathBuf), String> {
    let count = if ctx.quick {
        GENERATED_QUICK
    } else {
        GENERATED
    };
    let progs = csweep::generated(ctx.seed, count, tr)?;
    let matmul = csweep::example(ctx, "matmul")?;
    let dir = ctx.work.join("inputs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("writing {name}: {e}"))
    };
    let mut jobs = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        let file = format!("{}.c", p.name);
        write(&file, &p.source)?;
        jobs.push(job_json(&p.name, &file, p.cores, p.max_cycles, None));
        if i % DUP_EVERY == 0 {
            let id = format!("{}-dup", p.name);
            jobs.push(job_json(&id, &file, p.cores, p.max_cycles, None));
        }
        if i % WARM_EVERY == 0 {
            let id = format!("{}-warm", p.name);
            jobs.push(job_json(&id, &file, p.cores, p.max_cycles, Some(WARM)));
        }
    }
    write("matmul.c", &matmul.source)?;
    jobs.push(job_json(
        "matmul",
        "matmul.c",
        matmul.cores,
        matmul.max_cycles,
        None,
    ));
    if !ctx.quick {
        write("matmul_h64.c", LONG_SOURCE)?;
        for (id, warm) in [("matmul_h64", None), ("matmul_h64-warm", Some(LONG_WARM))] {
            jobs.insert(
                0,
                job_json(id, "matmul_h64.c", LONG_CORES, matmul.max_cycles, warm),
            );
        }
    }
    let manifest = Json::obj([
        ("schema", Json::Str(lbp_batch::MANIFEST_SCHEMA.to_owned())),
        ("jobs", Json::Arr(jobs)),
    ]);
    let mut text = String::new();
    manifest.write(&mut text);
    write("manifest.json", &text)?;
    Ok((text, dir))
}

/// `batch_service`: the manifest through the crash-safe service.
///
/// # Errors
///
/// When the inputs cannot be written or the manifest does not load.
pub fn batch_service(ctx: &Ctx) -> Result<Outcome, String> {
    let setup = |tr: &mut Tracer| -> Result<State, String> {
        let (manifest, dir) = write_inputs(ctx, tr)?;
        let jobs = tr
            .leaf("bench.load_manifest", 0, || {
                lbp_batch::load_manifest(&manifest, &dir)
            })
            .map_err(|e| format!("manifest: {e}"))?;
        Ok(State {
            manifest,
            jobs,
            state_dir: ctx.work.join("state"),
            opts: ServiceOptions {
                workers: WORKERS,
                checkpoint_every: CHECKPOINT_EVERY,
                ..ServiceOptions::default()
            },
            first_results: None,
        })
    };
    measure(ctx, setup, |st, tr| {
        let mut it = Iter::default();
        let result = iteration(st, tr, &mut it);
        it.check(result.is_ok(), || {
            format!("service: {}", result.unwrap_err())
        });
        it
    })
}

fn iteration(st: &mut State, tr: &mut Tracer, it: &mut Iter) -> Result<(), String> {
    tr.leaf("bench.reset", 0, || {
        match std::fs::remove_dir_all(&st.state_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    })
    .map_err(|e| format!("clearing {}: {e}", st.state_dir.display()))?;
    let t = Instant::now();
    let report = tr
        .leaf("lbp-batch.service_s", 0, || {
            run_service(&st.manifest, &st.jobs, &st.state_dir, &st.opts)
        })
        .map_err(|e| e.to_string())?;
    let service_s = t.elapsed().as_secs_f64();

    let open = tr.begin("bench.check", 0);
    let read = |name: &str| {
        std::fs::read(st.state_dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
    };
    let results = read("results.jsonl")?;
    let journal = read("journal.jsonl")?;
    let bench = read("bench.jsonl")?;
    let first = st.first_results.get_or_insert_with(|| results.clone());
    it.check(*first == results, || {
        "results.jsonl differs from the first iteration's".to_owned()
    });
    let text = String::from_utf8_lossy(&results);
    let lines: Vec<&str> = text.lines().collect();
    it.check(lines.len() == st.jobs.len(), || {
        format!("{} result lines for {} jobs", lines.len(), st.jobs.len())
    });
    for (line, job) in lines.iter().zip(&st.jobs) {
        let v = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
        it.check(status == "ok", || format!("{}: status {status}", job.id));
        let representative = matches!(v.get("dedup_of"), None | Some(Json::Null));
        if let (true, Some(r)) = (representative, v.get("report")) {
            add_report(it, r, job.cores);
        }
    }
    it.count("lbp-batch.jobs", report.jobs as f64);
    it.count("lbp-batch.unique", report.admitted as f64);
    it.count("lbp-batch.attempted", report.attempted as f64);
    it.count("lbp-batch.retries", report.retries as f64);
    it.check(report.failed == 0, || {
        format!("{} jobs failed", report.failed)
    });
    journal_latencies(it, &String::from_utf8_lossy(&journal));
    it.gauges
        .insert("lbp-batch.journal_bytes", journal.len() as f64);
    for row in String::from_utf8_lossy(&bench).lines() {
        let v = Json::parse(row).map_err(|e| format!("bench.jsonl: {e}"))?;
        let name = v.get("name").and_then(Json::as_str).unwrap_or("");
        let ms = v.get("host_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e6;
        if name.contains("/p50/") {
            it.gauges.insert("lbp-batch.job_latency_p50_ms", ms);
        } else if name.contains("/p99/") {
            it.gauges.insert("lbp-batch.job_latency_p99_ms", ms);
        }
    }
    tr.end(open);
    it.exact_s = service_s;
    it.programs = report.admitted as u64;
    it.jobs = report.jobs as u64;
    Ok(())
}

/// Adds one simulated job's `lbp-stats-v1` report to the counts.
fn add_report(it: &mut Iter, r: &Json, cores: usize) {
    let u = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
    let cycles = u("cycles");
    it.count("lbp-sim.cycles", cycles as f64);
    it.count("lbp-sim.retired", u("retired") as f64);
    it.count(
        "lbp-sim.events",
        (u("retired")
            + u("local_accesses")
            + u("remote_accesses")
            + u("link_hops")
            + u("forks")
            + u("joins")) as f64,
    );
    it.count("lbp-sim.local_accesses", u("local_accesses") as f64);
    it.count("lbp-sim.remote_accesses", u("remote_accesses") as f64);
    let buckets = [
        "fetch_starved",
        "mem_wait",
        "operand_wait",
        "rb_full",
        "sync_wait",
        "idle",
    ];
    for core in r.get("cores").and_then(Json::as_arr).unwrap_or(&[]) {
        for (name, b) in STALLS.iter().zip(buckets) {
            let v = core
                .get("stalls")
                .and_then(|s| s.get(b))
                .and_then(Json::as_u64);
            it.count(name, v.unwrap_or(0) as f64);
        }
    }
    it.core_cycles += cycles * cores as u64;
    it.count("lbp-sim.core_cycles", (cycles * cores as u64) as f64);
    it.retired += u("retired");
}

/// Per-job latency from the journal (last `running` to `final` of each
/// simulated job) and the number of checkpoints written.
fn journal_latencies(it: &mut Iter, journal: &str) {
    let mut started: BTreeMap<String, u64> = BTreeMap::new();
    let mut checkpoints = 0u64;
    for line in journal.lines() {
        let Ok(entry) = Json::parse(line) else {
            continue;
        };
        let Some(v) = entry.get("rec") else { continue };
        let id = v.get("id").and_then(Json::as_str).unwrap_or("").to_owned();
        let t = v.get("t_us").and_then(Json::as_u64);
        match v.get("op").and_then(Json::as_str) {
            Some("running") => {
                started.insert(id, t.unwrap_or(0));
            }
            Some("final") => {
                if let (Some(s), Some(t)) = (started.remove(&id), t) {
                    it.latencies_s.push(t.saturating_sub(s) as f64 / 1e6);
                }
            }
            Some("checkpoint") => checkpoints += 1,
            _ => {}
        }
    }
    it.count("lbp-batch.checkpoint_files", checkpoints as f64);
}
