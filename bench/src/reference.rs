//! Reads the figure blocks of `results_reference.txt` at run time, so
//! the benchmark never carries a copy of the reference numbers.

/// One row of a figure block, with the IPC and locality columns kept as
/// printed (the gates compare them at that precision).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRow {
    /// The version name (`base`, `copy`, `distributed`, `d+c`, `tiled`).
    pub name: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// IPC, two decimals as printed.
    pub ipc: String,
    /// Retired instructions.
    pub retired: u64,
    /// Locality, two decimals as printed (`-` for model rows).
    pub locality: String,
}

/// Parses the `Figure <number>` block: the rows between its column
/// header and the `shape checks:` line.
///
/// # Errors
///
/// A missing block or a malformed row.
pub fn figure_block(text: &str, number: u32) -> Result<Vec<RefRow>, String> {
    let title = format!("Figure {number} ");
    let mut lines = text.lines().skip_while(|l| !l.starts_with(&title));
    lines
        .next()
        .ok_or_else(|| format!("no `Figure {number}` block"))?;
    match lines.next() {
        Some(h) if h.starts_with("version") => {}
        other => {
            return Err(format!(
                "Figure {number}: expected a column header, got {other:?}"
            ))
        }
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.trim().is_empty() || line.starts_with("shape checks") {
            break;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() < 5 {
            return Err(format!("Figure {number}: malformed row {line:?}"));
        }
        let (name, nums) = cols.split_at(cols.len() - 4);
        let int = |s: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("Figure {number}: {s:?} in {line:?}: {e}"))
        };
        rows.push(RefRow {
            name: name.join(" "),
            cycles: int(nums[0])?,
            ipc: nums[1].to_owned(),
            retired: int(nums[2])?,
            locality: nums[3].to_owned(),
        });
    }
    if rows.is_empty() {
        return Err(format!("Figure {number}: block has no rows"));
    }
    Ok(rows)
}

/// The row named `name` of a parsed block.
///
/// # Errors
///
/// When the block has no such row.
pub fn row<'a>(rows: &'a [RefRow], name: &str) -> Result<&'a RefRow, String> {
    rows.iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("reference block has no `{name}` row"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Figure 19 — matrix multiplication, 16 harts (4 cores), peak IPC 4
version                        cycles      IPC      retired  locality
base                             5650     3.20        18060      0.28
tiled                           12049     3.65        43964      0.89
shape checks:
  [ok] base is about twice as fast as tiled (5650 vs 12049 cycles)

Figure 21 — matrix multiplication, 256 harts (64 cores), peak IPC 64
version                        cycles      IPC      retired  locality
tiled                         1427796    57.61     82256064      0.95
xeon-phi2 tiled (model)        390369    81.92     31979051         -
shape checks:
";

    #[test]
    fn parses_each_block_between_header_and_checks() {
        let f19 = figure_block(SAMPLE, 19).unwrap();
        assert_eq!(f19.len(), 2);
        assert_eq!(
            f19[0],
            RefRow {
                name: "base".into(),
                cycles: 5650,
                ipc: "3.20".into(),
                retired: 18060,
                locality: "0.28".into(),
            }
        );
        let f21 = figure_block(SAMPLE, 21).unwrap();
        assert_eq!(row(&f21, "tiled").unwrap().cycles, 1_427_796);
        let phi = row(&f21, "xeon-phi2 tiled (model)").unwrap();
        assert_eq!((phi.retired, phi.locality.as_str()), (31_979_051, "-"));
    }

    #[test]
    fn missing_or_malformed_blocks_are_errors() {
        assert!(figure_block(SAMPLE, 20).is_err());
        assert!(figure_block("Figure 7 x\nversion a\nbase 1 2\n", 7).is_err());
        assert!(figure_block("Figure 7 x\nversion a\nbase x 1.0 3 0.1\n", 7).is_err());
        assert!(figure_block("Figure 7 x\nnot a header\n", 7).is_err());
        assert!(row(&figure_block(SAMPLE, 19).unwrap(), "copy").is_err());
    }

    #[test]
    fn the_committed_reference_has_fig19_to_fig21() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../results_reference.txt"
        ))
        .unwrap();
        for n in [19, 20, 21] {
            let rows = figure_block(&text, n).unwrap();
            for v in ["base", "copy", "distributed", "d+c", "tiled"] {
                row(&rows, v).unwrap();
            }
        }
    }
}
