//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload figures --seed 42 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `bench/README.md` for the workloads and what each metric should move.

#![forbid(unsafe_code)]

mod batch;
mod csweep;
mod fig;
mod metrics;
mod reference;
mod runner;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use runner::{Ctx, Outcome};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["figures", "c_sweep", "batch_service"];

const USAGE: &str = "usage: lbp-benchmark --workload <figures|c_sweep|batch_service> \
                     [--seed N (42)] [--seconds S (10)] [--trace 0|1 (0)]";

/// Runs one workload in `ctx`.
///
/// # Errors
///
/// An unknown workload or a failed set-up.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "figures" => fig::figures(ctx),
        "c_sweep" => csweep::c_sweep(ctx),
        "batch_service" => batch::batch_service(ctx),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbp-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("results_reference.txt").is_file() {
        eprintln!("lbp-benchmark: run from the repository root (no results_reference.txt here)");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: false,
        work: root.join(".bench_work").join(&args.workload),
        root,
    };
    match run_workload(&args.workload, &ctx) {
        Ok(out) => {
            report(&args, &ctx, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lbp-benchmark: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// Prints the readable summary, writes the trace, then the result line.
fn report(args: &Args, ctx: &Ctx, out: &Outcome) {
    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, unit) in declared {
        let v = out.values.get(*name).copied().unwrap_or(0.0);
        println!("#   {name:<34} {v:>18.6} {unit}");
    }
    let samples = out
        .values
        .get("bench.latency_samples")
        .copied()
        .unwrap_or(0.0);
    match metrics::tail_percentile(samples as usize) {
        Some(p) => {
            println!("# latency: {samples} samples per iteration; p{p} is the highest percentile with 10 beyond")
        }
        None => {
            println!("# latency: {samples} samples per iteration; too few for any tail percentile")
        }
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    if let Some(jsonl) = &out.trace_jsonl {
        let path = ctx.work.join(format!("trace-seed{}.jsonl", args.seed));
        match write_file(&path, jsonl) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("lbp-benchmark: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        metrics::result_line(out.attempted, out.failed, declared, &out.values)
    );
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_default_and_validate() {
        let a = args("--workload c_sweep").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        let a = args("--workload figures --seed 7 --seconds 1 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 1.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload figures --trace 2",
            "--workload figures --seed -1",
            "--workload figures --seconds",
            "--workload figures --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// Every workload, at smoke size: set-up, a warm-up and a few
    /// iterations, untraced and traced, with no failed check and every
    /// declared metric finite.
    #[test]
    fn every_workload_smokes_clean_untraced_and_traced() {
        let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
        let work = root
            .join(".bench_work")
            .join(format!("smoke-{}", std::process::id()));
        for name in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 42,
                    seconds: 0.0,
                    trace,
                    quick: true,
                    root: root.clone(),
                    work: work.join(name),
                };
                let out = run_workload(name, &ctx).unwrap();
                assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
                assert!(out.attempted > 0, "{name}");
                let declared = if trace {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                let line = metrics::result_line(out.attempted, out.failed, declared, &out.values);
                assert!(lbp_sim::Json::parse(&line).is_ok(), "{name}: {line}");
                if !trace {
                    for (m, _) in metrics::END_TO_END {
                        assert!(out.values[*m] > 0.0, "{name}: {m} reads 0");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }
}
