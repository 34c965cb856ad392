//! The declared metrics, the percentile rule and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("core_cycles_per_s", "1/s"),
    ("guest_mips", "MIPS"),
    ("programs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("program_latency_p50_ms", "ms"),
    ("program_latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The six stall buckets of `lbp_sim::CoreStalls`, as per-layer names.
pub const STALLS: [&str; 6] = [
    "lbp-sim.stall_fetch_starved",
    "lbp-sim.stall_mem_wait",
    "lbp-sim.stall_operand_wait",
    "lbp-sim.stall_rb_full",
    "lbp-sim.stall_sync_wait",
    "lbp-sim.stall_idle",
];

/// Per-layer metrics (traced runs): `(name, unit)`. Times are host
/// seconds of self time per iteration (per set-up for `lbp-omp`);
/// counts are exact per iteration. A layer a workload never calls
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lbp-cc.lex_s", "s"),
    ("lbp-cc.parse_s", "s"),
    ("lbp-cc.sema_s", "s"),
    ("lbp-cc.compile_s", "s"),
    ("lbp-cc.codegen_s", "s"),
    ("lbp-cc.lint_s", "s"),
    ("lbp-cc.source_bytes", "bytes"),
    ("lbp-asm.assemble_s", "s"),
    ("lbp-asm.image_words", "count"),
    ("lbp-verify.verify_s", "s"),
    ("lbp-verify.diags", "count"),
    ("lbp-omp.build_s", "s"),
    ("lbp-sim.machine_new_s", "s"),
    ("lbp-sim.run_s", "s"),
    ("lbp-sim.cycles", "count"),
    ("lbp-sim.core_cycles", "count"),
    ("lbp-sim.retired", "count"),
    ("lbp-sim.events", "count"),
    ("lbp-sim.local_accesses", "count"),
    ("lbp-sim.remote_accesses", "count"),
    ("lbp-sim.ns_per_core_cycle", "ns"),
    (STALLS[0], "count"),
    (STALLS[1], "count"),
    (STALLS[2], "count"),
    (STALLS[3], "count"),
    (STALLS[4], "count"),
    (STALLS[5], "count"),
    ("lbp-sim.fast_new_s", "s"),
    ("lbp-sim.fast_run_s", "s"),
    ("lbp-sim.fast_retired", "count"),
    ("lbp-sim.materialize_s", "s"),
    ("lbp-sim.snapshot_s", "s"),
    ("lbp-sim.restore_s", "s"),
    ("lbp-sim.state_bytes", "bytes"),
    ("lbp-snap.encode_s", "s"),
    ("lbp-snap.decode_s", "s"),
    ("lbp-snap.container_bytes", "bytes"),
    ("lbp-sema.interp_s", "s"),
    ("lbp-sema.traps", "count"),
    ("lbp-batch.service_s", "s"),
    ("lbp-batch.jobs", "count"),
    ("lbp-batch.unique", "count"),
    ("lbp-batch.attempted", "count"),
    ("lbp-batch.retries", "count"),
    ("lbp-batch.journal_bytes", "bytes"),
    ("lbp-batch.checkpoint_files", "count"),
    ("lbp-batch.job_latency_p50_ms", "ms"),
    ("lbp-batch.job_latency_p99_ms", "ms"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.spans", "count"),
    ("bench.iterations", "count"),
    ("bench.latency_samples", "count"),
    ("bench.latency_tail_pct", "%"),
    ("bench.hybrid_cycle_err_pct", "%"),
    ("bench.ref_cycles", "count"),
    ("bench.error_rate", "ratio"),
];

/// Whether `name` fits the metric-name grammar: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` fits the unit grammar: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Percentiles a latency may be reported at, in tenths of a percent.
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// Nearest-rank position (1-based) of percentile `p` (tenths of a
/// percent) among `n` samples.
fn rank(n: usize, p: u64) -> usize {
    (((p * n as u64).div_ceil(1000)) as usize).max(1)
}

/// The highest ladder percentile (50, 90, 99, 99.9) with at least ten
/// samples beyond it among `n`, in percent; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| n >= rank(n, p) + 10)
        .map(|&p| p as f64 / 10.0)
}

/// Percentile `pct` (e.g. 90.0) of `samples`, interpolated linearly
/// between the two nearest order statistics; 0 when empty. With few
/// samples this reads less like the single largest one than the nearest
/// rank would.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = pct / 100.0 * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(hi) => v[lo] + (hi - v[lo]) * frac,
        None => v[lo],
    }
}

/// Median of `samples` (mean of the middle two for an even count); 0
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the best tenth of `samples` (at least one sample): the
/// lowest tenth for a time, the highest for a rate (`higher`). Other
/// tenants of a shared host only ever slow an iteration down, and in a
/// busy period most iterations are slowed, so the plain median follows
/// the host's load; the fast end follows the program. The median of a
/// tenth, not the single best sample, keeps one lucky iteration from
/// setting the figure where a run has many. 0 when empty.
pub fn best_tenth(samples: &[f64], higher: bool) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if higher {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(10));
    median(&v)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// named in `declared`, each `{"value", "unit"}`. A declared metric
/// missing from `values` reads 0.
///
/// # Panics
///
/// On a non-finite value or a name or unit outside the grammar: the
/// line must stay valid JSON and within the declared format.
pub fn result_line(
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = values.get(*name).copied().unwrap_or(0.0);
        assert!(v.is_finite(), "metric {name} is {v}");
        assert!(
            valid_name(name) && valid_unit(unit),
            "metric {name} [{unit}]"
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_fits_the_grammar_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_grammar_rejects_what_it_should() {
        for good in ["run_s", "lbp-sim.run_s", "9lives", "a.b-c_d"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a:b",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MIPS"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(percentile(&v, 50.0), 50.0));
        assert!(close(percentile(&v, 90.0), 90.0));
        assert!(close(percentile(&v, 100.0), 100.0));
        assert!(close(percentile(&[1.0, 2.0], 90.0), 1.9));
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_tenth_is_the_median_of_the_fast_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_tenth(&v, false), 1.5);
        assert_eq!(best_tenth(&v, true), 19.5);
        assert_eq!(best_tenth(&v[..11], true), 10.5);
        assert_eq!(best_tenth(&[5.0, 9.0, 1.0], false), 1.0);
        assert_eq!(best_tenth(&[5.0, 9.0, 1.0], true), 9.0);
        assert_eq!(best_tenth(&[], false), 0.0);
    }

    #[test]
    fn result_line_lists_every_declared_metric_in_order() {
        let mut values = BTreeMap::new();
        values.insert("run_s".to_owned(), 1.25);
        let line = result_line(3, 0, &[("run_s", "s"), ("setup_s", "s")], &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        let parsed = lbp_sim::Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("failed").and_then(lbp_sim::Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let v = lbp_sim::Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(lbp_sim::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(lbp_sim::Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }
}
