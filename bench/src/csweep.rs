//! `c_sweep`: the developer's loop over a seeded corpus of generated
//! Deterministic-OpenMP mini-C programs plus the shipped `examples/c`.
//! Each program goes lint → lex → parse → sema → compile → assemble →
//! verify → `Machine::new` → run → lbp-sema interpretation, and the
//! machine's final globals must equal the interpreter's (or both sides
//! must fail: a semantic trap and a run that faults or never exits).

use std::time::Instant;

use lbp_fuzz::gen::{generate, GenConfig, Kind};
use lbp_sim::{LbpConfig, Machine};

use crate::runner::{measure, Ctx, Iter, Outcome};
use crate::trace::Tracer;

/// Generated programs per corpus (smoke tests use a handful).
const GENERATED: u64 = 400;
const GENERATED_QUICK: u64 = 6;

/// Cycle budget of the shipped examples.
const EXAMPLE_CYCLES: u64 = 100_000_000;

/// One program of the corpus.
#[derive(Debug, Clone)]
pub struct Program {
    /// `gen-<case>` or the example's file stem.
    pub name: String,
    /// Mini-C source.
    pub source: String,
    /// Cores of the machine it runs on.
    pub cores: usize,
    /// Cycle budget.
    pub max_cycles: u64,
}

/// Team sizes lbp-fuzz's `c` family draws from.
const TEAMS: [usize; 5] = [1, 2, 4, 8, 16];

/// The team size a generated program declares (`#define NUM_HART n`).
fn team_of(source: &str) -> Option<usize> {
    let rest = &source[source.find("#define NUM_HART ")? + "#define NUM_HART ".len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// The generated half of the corpus: lbp-fuzz's `c` family, case `i`
/// drawn from `case_seed(seed, i)` (so seed 42 replays `lbp-fuzz
/// --seed 42 --kinds c`), keeping the first `count / 5` programs of
/// each team size. Equal shares per team size keep the corpus's
/// simulated work close to the same on every seed.
///
/// # Errors
///
/// When `count * 50` cases do not fill every team size's share (the
/// generator no longer draws the team sizes this corpus expects).
pub fn generated(seed: u64, count: u64, tr: &mut Tracer) -> Result<Vec<Program>, String> {
    let cfg = GenConfig {
        kinds: vec![Kind::C],
        ..GenConfig::default()
    };
    let quota = (count as usize).div_ceil(TEAMS.len());
    let mut taken = [0usize; TEAMS.len()];
    let mut out = Vec::new();
    let mut case = 0u64;
    while out.len() < quota * TEAMS.len() {
        if case == count * 50 {
            return Err(format!(
                "{case} generated cases fill only {taken:?} of {quota} programs per team size {TEAMS:?}"
            ));
        }
        let mut rng = lbp_testutil::Rng::new(lbp_fuzz::case_seed(seed, case));
        let p = tr.leaf("bench.generate", case, || generate(&mut rng, &cfg, case));
        let source = p.render();
        let class = team_of(&source).and_then(|t| TEAMS.iter().position(|&x| x == t));
        if let Some(c) = class.filter(|&c| taken[c] < quota) {
            taken[c] += 1;
            out.push(Program {
                name: format!("gen-{case}"),
                source,
                cores: p.cores,
                max_cycles: p.max_cycles,
            });
        }
        case += 1;
    }
    Ok(out)
}

/// A shipped example, on the fewest cores that hold its largest team.
///
/// # Errors
///
/// An unreadable file or a source the front end rejects.
pub fn example(ctx: &Ctx, stem: &str) -> Result<Program, String> {
    let source = ctx.read(&format!("examples/c/{stem}.c"))?;
    let cx = lbp_cc::front_end(&source).map_err(|e| format!("examples/c/{stem}.c: {e}"))?;
    Ok(Program {
        name: stem.to_owned(),
        cores: lbp_sema::diff::required_cores(&cx),
        source,
        max_cycles: EXAMPLE_CYCLES,
    })
}

fn examples(ctx: &Ctx) -> Result<Vec<Program>, String> {
    let dir = ctx.root.join("examples/c");
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".c")?.to_owned())
        })
        .collect();
    stems.sort();
    stems.iter().map(|s| example(ctx, s)).collect()
}

/// `c_sweep`: every program of the corpus through the whole toolchain
/// on one thread.
///
/// # Errors
///
/// When the examples cannot be read or compiled by the front end.
pub fn c_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let count = if ctx.quick {
        GENERATED_QUICK
    } else {
        GENERATED
    };
    let setup = |tr: &mut Tracer| -> Result<Vec<Program>, String> {
        let mut corpus = generated(ctx.seed, count, tr)?;
        corpus.extend(examples(ctx)?);
        Ok(corpus)
    };
    measure(ctx, setup, |corpus, tr| {
        let mut it = Iter::default();
        for (i, p) in corpus.iter().enumerate() {
            let id = i as u64;
            let t = Instant::now();
            let open = tr.begin("bench.program", id);
            let result = pipeline(p, id, tr, &mut it);
            tr.end(open);
            it.latencies_s.push(t.elapsed().as_secs_f64());
            it.check(result.is_ok(), || {
                format!("{}: {}", p.name, result.unwrap_err())
            });
            it.programs += 1;
            it.jobs += 1;
        }
        it
    })
}

fn pipeline(p: &Program, id: u64, tr: &mut Tracer, it: &mut Iter) -> Result<(), String> {
    let src = p.source.as_str();
    it.count("lbp-cc.source_bytes", src.len() as f64);
    let lint = tr
        .leaf("lbp-cc.lint_s", id, || lbp_cc::lint(src))
        .map_err(|e| format!("lint: {e}"))?;
    if !lbp_verify::accepted(&lint) {
        return Err(format!("lint rejects the program: {lint:?}"));
    }
    let tokens = tr
        .leaf("lbp-cc.lex_s", id, || lbp_cc::lex::lex(src))
        .map_err(|e| format!("lex: {e}"))?;
    let unit = tr
        .leaf("lbp-cc.parse_s", id, || lbp_cc::parse::parse(tokens))
        .map_err(|e| format!("parse: {e}"))?;
    let cx = tr
        .leaf("lbp-cc.sema_s", id, || lbp_cc::sema::check(unit))
        .map_err(|e| format!("sema: {e}"))?;
    let compiled = tr
        .leaf("lbp-cc.compile_s", id, || lbp_cc::compile(src))
        .map_err(|e| format!("compile: {e}"))?;
    let image = tr
        .leaf("lbp-asm.assemble_s", id, || {
            lbp_asm::assemble(&compiled.asm)
        })
        .map_err(|e| format!("assemble: {e}"))?;
    if image.text != compiled.image.text || image.data != compiled.image.data {
        return Err("re-assembling the compiler's output gave another image".to_owned());
    }
    it.count(
        "lbp-asm.image_words",
        (image.text.len() + image.data.len().div_ceil(4)) as f64,
    );
    let diags = tr.leaf("lbp-verify.verify_s", id, || {
        lbp_verify::verify_image(&image)
    });
    it.count("lbp-verify.diags", diags.len() as f64);
    if !lbp_verify::accepted(&diags) {
        return Err(format!("lbp-verify rejects the image: {diags:?}"));
    }
    let mut m = tr
        .leaf("lbp-sim.machine_new_s", id, || {
            Machine::new(LbpConfig::cores(p.cores), &image)
        })
        .map_err(|e| format!("machine: {e}"))?;
    let run_t = Instant::now();
    let run = tr.leaf("lbp-sim.run_s", id, || m.run(p.max_cycles));
    let run_s = run_t.elapsed().as_secs_f64();
    let interp = tr.leaf("lbp-sema.interp_s", id, || {
        let layout = lbp_sema::Layout::from_image(&cx, &image);
        lbp_sema::interp::run(&cx, &layout, &lbp_sema::InterpOptions::default())
    });
    let open = tr.begin("bench.check", id);
    let verdict = match (interp, run) {
        (Ok(outcome), Ok(report)) if report.exited => {
            it.sim_stats(&report.stats);
            it.exact_run(report.stats.cycles, p.cores, run_s);
            it.retired += report.stats.retired();
            same_globals(&outcome, &image, &mut m)
        }
        (Ok(_), run) => Err(format!(
            "the interpreter finished, the machine did not: {run:?}"
        )),
        (Err(trap), run) => {
            if run.is_ok_and(|r| r.exited) {
                Err(format!(
                    "the machine exited, the interpreter trapped: {trap}"
                ))
            } else {
                it.count("lbp-sema.traps", 1.0);
                Ok(())
            }
        }
    };
    tr.end(open);
    verdict
}

/// Compares every global word of the interpreter's outcome with the
/// machine's shared memory at the image's symbol addresses.
fn same_globals(
    outcome: &lbp_sema::Outcome,
    image: &lbp_asm::Image,
    m: &mut Machine,
) -> Result<(), String> {
    for (name, words) in &outcome.globals {
        let base = image
            .symbol(name)
            .ok_or_else(|| format!("image lacks symbol `{name}`"))?;
        for (i, &want) in words.iter().enumerate() {
            let got = m
                .peek_shared(base + 4 * i as u32)
                .map_err(|e| format!("reading {name}[{i}]: {e}"))? as i32;
            if got != want {
                return Err(format!("{name}[{i}]: interpreter {want}, machine {got}"));
            }
        }
    }
    Ok(())
}
