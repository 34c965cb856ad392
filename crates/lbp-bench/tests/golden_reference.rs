//! Golden-reference regression test: the checked-in
//! `results_reference.txt` (a captured `figures all` run) is the
//! contract. Simulated numbers are exact — the machine is
//! deterministic by construction — so the matmul cycle counts, IPC and
//! retired-instruction counts it records must match a fresh run **bit
//! for bit**. Any drift is a behavioural change of the simulator and
//! fails tier-1.
//!
//! ## Blessing a deliberate change
//!
//! If a change intentionally alters the performance model (and the
//! shape checks in the file still hold), regenerate the reference:
//!
//! ```text
//! cargo run -p lbp-bench --release --bin figures -- all > results_reference.txt
//! ```
//!
//! then re-run this test and commit the new file together with the
//! change that moved the numbers, explaining the delta in the commit
//! message.

use lbp_bench::measure;
use lbp_kernels::matmul::Version;

/// One parsed row of a figure table in `results_reference.txt`.
#[derive(Debug, PartialEq)]
struct GoldenRow {
    name: String,
    cycles: u64,
    ipc: f64,
    retired: u64,
}

/// Parses the named figure's table from the reference file.
fn golden_rows(reference: &str, figure: &str) -> Vec<GoldenRow> {
    let mut rows = Vec::new();
    let mut in_figure = false;
    for line in reference.lines() {
        if line.starts_with(figure) {
            in_figure = true;
            continue;
        }
        if !in_figure {
            continue;
        }
        if line.starts_with("shape checks:") || line.trim().is_empty() {
            break;
        }
        if line.starts_with("version") {
            continue; // table header
        }
        // `name cycles IPC retired locality` with a possibly
        // multi-word name: take the four numeric fields from the right.
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(fields.len() >= 5, "malformed reference row: {line}");
        let nums = &fields[fields.len() - 4..];
        let name = fields[..fields.len() - 4].join(" ");
        if nums[3] == "-" {
            continue; // analytic baseline rows (no locality) aren't simulated
        }
        rows.push(GoldenRow {
            name,
            cycles: nums[0]
                .parse()
                .unwrap_or_else(|_| panic!("cycles in {line}")),
            ipc: nums[1].parse().unwrap_or_else(|_| panic!("ipc in {line}")),
            retired: nums[2]
                .parse()
                .unwrap_or_else(|_| panic!("retired in {line}")),
        });
    }
    assert!(
        !rows.is_empty(),
        "section {figure:?} not found in results_reference.txt"
    );
    rows
}

fn reference_text() -> String {
    // The file lives at the repository root, one level above the
    // crate's manifest directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_reference.txt");
    std::fs::read_to_string(path).expect("results_reference.txt is checked in")
}

fn check_figure(figure: &str, harts: usize) {
    let golden = golden_rows(&reference_text(), figure);
    assert_eq!(
        golden.len(),
        Version::ALL.len(),
        "one golden row per version"
    );
    for (version, gold) in Version::ALL.into_iter().zip(&golden) {
        assert_eq!(version.name(), gold.name, "version order matches the file");
        let row = measure(harts, version);
        assert_eq!(
            row.cycles, gold.cycles,
            "{figure}: {} cycle count drifted from results_reference.txt \
             (got {}, reference {}). If this is an intended performance-model \
             change, re-bless: see the header of this test.",
            gold.name, row.cycles, gold.cycles
        );
        assert_eq!(
            row.retired, gold.retired,
            "{figure}: {} retired-instruction count drifted from the reference",
            gold.name
        );
        // IPC is printed rounded to 2 decimals; compare at that grain.
        assert!(
            (row.ipc - gold.ipc).abs() < 0.005 + 1e-9,
            "{figure}: {} IPC drifted (got {:.4}, reference {:.2})",
            gold.name,
            row.ipc,
            gold.ipc
        );
    }
}

/// Figure 19 (16 harts, 4 cores): every version, exact match. Small
/// enough to pin in tier-1 even in debug builds.
#[test]
fn figure19_matches_the_reference_exactly() {
    check_figure("Figure 19", 16);
}

/// Figure 20 (64 harts, 16 cores): every version, exact match.
#[test]
fn figure20_matches_the_reference_exactly() {
    check_figure("Figure 20", 64);
}
