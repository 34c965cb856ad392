//! The measurement loop every workload shares: repeated set-up, one
//! warm-up iteration, then timed iterations until the run's seconds are
//! spent, and the reduction of those iterations to metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{self, best_tenth, median, percentile};
use crate::trace::Tracer;

/// Set-up runs `SETUP_REPS` times before the first iteration, and again
/// between iterations for at least `SETUP_GAP_REPS` times and
/// `SETUP_GAP_SECONDS`; `setup_s` is the median of the fastest tenth of
/// every repeat. Set-up takes well under a millisecond on some workloads,
/// and the host's speed drifts over seconds, so repeats spread over the
/// whole run steady the figure where one burst at the start would not.
const SETUP_REPS: usize = 11;
const SETUP_GAP_REPS: usize = 3;
const SETUP_GAP_SECONDS: f64 = 0.01;

/// Where a run reads its inputs and writes its scratch files.
pub struct Ctx {
    /// The workload seed (inputs are a function of it).
    pub seed: u64,
    /// How long the timed iterations run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Small inputs for the smoke tests.
    pub quick: bool,
    /// The checkout root (holds `results_reference.txt`, `examples/`).
    pub root: PathBuf,
    /// Scratch directory of this workload.
    pub work: PathBuf,
}

impl Ctx {
    /// Reads a file of the checkout.
    ///
    /// # Errors
    ///
    /// When the file cannot be read.
    pub fn read(&self, rel: &str) -> Result<String, String> {
        std::fs::read_to_string(self.root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
    }
}

/// What one iteration did.
#[derive(Debug, Default)]
pub struct Iter {
    /// Host seconds of the whole iteration.
    pub host_s: f64,
    /// Host seconds inside cycle-exact runs.
    pub exact_s: f64,
    /// Simulated cycles × cores of the cycle-exact runs.
    pub core_cycles: u64,
    /// Guest instructions retired by either engine.
    pub retired: u64,
    /// Programs simulated to a verdict.
    pub programs: u64,
    /// Jobs submitted (a deduplicated job counts; elsewhere = programs).
    pub jobs: u64,
    /// Host seconds per program.
    pub latencies_s: Vec<f64>,
    /// Exact counts, which must repeat in every iteration.
    pub counts: BTreeMap<&'static str, f64>,
    /// Host-dependent per-layer values, averaged over traced iterations.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that were not ok, with why.
    pub failures: Vec<String>,
}

impl Iter {
    /// Adds `v` to an exact count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a cycle-exact run of `cycles` simulated cycles on `cores`
    /// cores that took `host_s` host seconds.
    pub fn exact_run(&mut self, cycles: u64, cores: usize, host_s: f64) {
        let cc = cycles * cores as u64;
        self.core_cycles += cc;
        self.exact_s += host_s;
        self.count("lbp-sim.core_cycles", cc as f64);
    }

    /// Adds a machine's simulated counts.
    pub fn sim_stats(&mut self, stats: &lbp_sim::Stats) {
        self.count("lbp-sim.cycles", stats.cycles as f64);
        self.count("lbp-sim.retired", stats.retired() as f64);
        self.count(
            "lbp-sim.events",
            lbp_prof::BenchRow::events_of(stats) as f64,
        );
        self.count("lbp-sim.local_accesses", stats.local_accesses as f64);
        self.count("lbp-sim.remote_accesses", stats.remote_accesses as f64);
        let s = stats.stalls_total();
        let buckets = [
            s.fetch_starved,
            s.mem_wait,
            s.operand_wait,
            s.rb_full,
            s.sync_wait,
            s.idle,
        ];
        for (name, v) in metrics::STALLS.iter().zip(buckets) {
            self.count(name, v as f64);
        }
    }
}

/// A finished run, ready to print.
pub struct Outcome {
    /// Checked operations over every iteration.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Why operations failed (first few).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// The trace's JSON lines (traced runs only).
    pub trace_jsonl: Option<String>,
}

/// Runs a workload: `setup` several times (the last state is kept, and
/// more set-ups run between iterations only to be timed), one warm-up
/// iteration, then timed iterations for `ctx.seconds` (at
/// least three untraced; a traced run alternates untraced and traced
/// iterations, at least two each). No iteration starts when the last
/// one's length would carry it past `ctx.seconds`, so a run's length
/// stays close to `ctx.seconds` whatever an iteration costs.
///
/// # Errors
///
/// When set-up fails.
pub fn measure<S>(
    ctx: &Ctx,
    mut setup: impl FnMut(&mut Tracer) -> Result<S, String>,
    mut iterate: impl FnMut(&mut S, &mut Tracer) -> Iter,
) -> Result<Outcome, String> {
    let mut setup_tr = Tracer::new(ctx.trace);
    let mut setup_s = Vec::new();
    let mut state = None;
    set_up(
        &mut setup,
        &mut setup_tr,
        &mut setup_s,
        &mut state,
        SETUP_REPS,
        0.0,
    )?;
    let mut state = state.expect("at least one set-up");

    let mut tr = Tracer::new(false);
    let warm = timed(&mut state, &mut tr, &mut iterate);
    let mut attempted = warm.attempted;
    let mut failures = warm.failures.clone();

    let mut plain: Vec<Iter> = Vec::new();
    let mut traced: Vec<Iter> = Vec::new();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let (min_plain, min_traced) = if ctx.trace { (2, 2) } else { (3, 0) };
    let mut last = Duration::ZERO;
    while plain.len() < min_plain || traced.len() < min_traced || start.elapsed() + last < budget {
        set_up(
            &mut setup,
            &mut setup_tr,
            &mut setup_s,
            &mut None,
            SETUP_GAP_REPS,
            SETUP_GAP_SECONDS,
        )?;
        let on = ctx.trace && plain.len() > traced.len();
        tr.set_on(on);
        let it = timed(&mut state, &mut tr, &mut iterate);
        last = Duration::from_secs_f64(it.host_s);
        // The iteration's own checks plus the counts comparison below.
        attempted += it.attempted + 1;
        failures.extend(it.failures.iter().cloned());
        if it.counts != warm.counts {
            failures.push(format!(
                "simulated counts moved between iterations: {:?} vs {:?}",
                it.counts, warm.counts
            ));
        }
        if on {
            traced.push(it);
        } else {
            plain.push(it);
        }
    }
    tr.set_on(false);

    let mut values = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_owned(), v);
    };
    let best = |higher: bool, f: &dyn Fn(&Iter) -> f64| {
        best_tenth(&plain.iter().map(f).collect::<Vec<_>>(), higher)
    };
    // The latency percentiles are taken per iteration, so the tail rule
    // counts the samples of one iteration.
    let lat = plain.iter().map(|i| i.latencies_s.len()).min().unwrap_or(0);
    if !ctx.trace {
        put("setup_s", best_tenth(&setup_s, false));
        put("run_s", best(false, &|i| i.host_s));
        put(
            "core_cycles_per_s",
            best(true, &|i| i.core_cycles as f64 / i.exact_s.max(1e-9)),
        );
        put(
            "guest_mips",
            best(true, &|i| i.retired as f64 / (i.host_s * 1e6)),
        );
        put(
            "programs_per_s",
            best(true, &|i| i.programs as f64 / i.host_s),
        );
        put("jobs_per_s", best(true, &|i| i.jobs as f64 / i.host_s));
        put(
            "program_latency_p50_ms",
            best(false, &|i| percentile(&i.latencies_s, 50.0)) * 1e3,
        );
        put(
            "program_latency_p90_ms",
            best(false, &|i| percentile(&i.latencies_s, 90.0)) * 1e3,
        );
        put(
            "peak_rss_mb",
            lbp_prof::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
        );
    } else {
        let n = traced.len() as f64;
        let mut glue = 0.0;
        for (name, s) in tr.self_seconds() {
            if name.starts_with("bench.") {
                glue += s / n;
            } else {
                put(name, s / n);
            }
        }
        put("bench.self_s", glue);
        for (name, s) in setup_tr.self_seconds() {
            if !name.starts_with("bench.") {
                put(name, s / setup_s.len() as f64);
            }
        }
        for (name, v) in &warm.counts {
            put(name, *v);
        }
        let mut gauges: BTreeMap<&str, f64> = BTreeMap::new();
        for it in &traced {
            for (k, v) in &it.gauges {
                *gauges.entry(k).or_insert(0.0) += v / n;
            }
        }
        for (k, v) in gauges {
            put(k, v);
        }
        let get = |values: &BTreeMap<String, f64>, k: &str| values.get(k).copied().unwrap_or(0.0);
        if values.contains_key("lbp-cc.compile_s") {
            let front: f64 = [
                "lbp-cc.lex_s",
                "lbp-cc.parse_s",
                "lbp-cc.sema_s",
                "lbp-asm.assemble_s",
            ]
            .iter()
            .map(|k| get(&values, k))
            .sum();
            let codegen = get(&values, "lbp-cc.compile_s") - front;
            values.insert("lbp-cc.codegen_s".to_owned(), codegen);
        }
        let core_cycles = get(&values, "lbp-sim.core_cycles");
        if core_cycles > 0.0 {
            let ns = get(&values, "lbp-sim.run_s") * 1e9 / core_cycles;
            values.insert("lbp-sim.ns_per_core_cycle".to_owned(), ns);
        }
        let host = |v: &[Iter]| median(&v.iter().map(|i| i.host_s).collect::<Vec<_>>());
        values.insert(
            "bench.trace_overhead_s".to_owned(),
            host(&traced) - host(&plain),
        );
        values.insert("bench.spans".to_owned(), tr.spans().len() as f64 / n);
    }
    values.insert(
        "bench.iterations".to_owned(),
        (plain.len() + traced.len()) as f64,
    );
    values.insert("bench.latency_samples".to_owned(), lat as f64);
    values.insert(
        "bench.latency_tail_pct".to_owned(),
        metrics::tail_percentile(lat).unwrap_or(0.0),
    );
    let failed = failures.len() as u64;
    values.insert(
        "bench.error_rate".to_owned(),
        failed as f64 / attempted.max(1) as f64,
    );
    let trace_jsonl = ctx.trace.then(|| setup_tr.to_jsonl() + &tr.to_jsonl());
    Ok(Outcome {
        attempted,
        failed,
        failures: failures.into_iter().take(8).collect(),
        values,
        trace_jsonl,
    })
}

/// Runs `setup` at least `reps` times and for at least `seconds`,
/// recording each time, and keeps the last state in `keep`.
fn set_up<S>(
    setup: &mut impl FnMut(&mut Tracer) -> Result<S, String>,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
    keep: &mut Option<S>,
    reps: usize,
    seconds: f64,
) -> Result<(), String> {
    let start = Instant::now();
    let mut done = 0;
    while done < reps || start.elapsed().as_secs_f64() < seconds {
        drop(keep.take());
        let t = Instant::now();
        let open = tr.begin("bench.setup", 0);
        *keep = Some(setup(tr)?);
        tr.end(open);
        times.push(t.elapsed().as_secs_f64());
        done += 1;
    }
    Ok(())
}

/// Runs one iteration inside a `bench.iteration` span and stamps its
/// host time.
fn timed<S>(
    state: &mut S,
    tr: &mut Tracer,
    iterate: &mut impl FnMut(&mut S, &mut Tracer) -> Iter,
) -> Iter {
    let t = Instant::now();
    let open = tr.begin("bench.iteration", 0);
    let mut it = iterate(state, tr);
    tr.end(open);
    it.host_s = t.elapsed().as_secs_f64();
    it
}
