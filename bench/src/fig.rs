//! `figures`: the paper's matrix multiplication at full size (Figs. 20
//! and 21), checked against `results_reference.txt`.

use std::time::Instant;

use lbp_asm::Image;
use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{FastEngine, FastStop, Machine, SimError};

use crate::reference::{self, RefRow};
use crate::runner::{measure, Ctx, Iter, Outcome};
use crate::trace::Tracer;

/// Cycle (and functional step) budget of every run; each finishes far
/// below it.
const BUDGET: u64 = 1_000_000_000;

/// Fills `X` and `Y` with ones, the paper's initialization.
fn load_inputs(
    mm: &Matmul,
    mut poke: impl FnMut(u32, u32) -> Result<(), SimError>,
) -> Result<(), SimError> {
    let l = mm.layout();
    for i in 0..l.n {
        for k in 0..l.m {
            poke(l.x(i, k), 1)?;
        }
    }
    for k in 0..l.m {
        for j in 0..l.n {
            poke(l.y(k, j), 1)?;
        }
    }
    Ok(())
}

/// Whether every element of `Z` is `h/2`, the product of the all-ones
/// inputs.
fn product_ok(mm: &Matmul, m: &mut Machine) -> bool {
    let want = mm.layout().m;
    mm.read_z(m)
        .is_ok_and(|z| z.len() == mm.harts * mm.harts && z.iter().all(|&v| v == want))
}

/// A matmul experiment, its image, and the reference row it must match.
struct Experiment {
    mm: Matmul,
    image: Image,
    want: RefRow,
}

struct Figures {
    /// Fig. 20's five versions, cycle-exact.
    exact: Vec<Experiment>,
    /// Fig. 21's tiled version, hybrid.
    hybrid: Experiment,
}

/// `figures`: the paper's Figs. 20 and 21 in one loop.
///
/// - All five matmul versions at `h = 64` on 16 cores, cycle-exact. Each
///   run's cycles, retired count, IPC and locality must read as the
///   Figure 20 block prints them, and every element of `Z` must be right.
/// - Tiled at `h = 256` on 64 cores: the functional engine retires 90 %
///   of the reference instruction count, the state is materialized, and
///   the cycle-exact engine finishes. The product and the retired total
///   are checked, the total cycles are compared with the reference
///   (`bench.hybrid_cycle_err_pct`, the absolute error in percent of
///   `bench.ref_cycles`), and the final state makes one snapshot →
///   encode → decode → restore round trip that must keep its cycle count
///   and architectural hash.
///
/// The smoke tests run one figure smaller (Fig. 19 and a Fig. 20-sized
/// hybrid).
///
/// # Errors
///
/// When the reference cannot be read.
pub fn figures(ctx: &Ctx) -> Result<Outcome, String> {
    let ((f_exact, h_exact), (f_hybrid, h_hybrid)) = if ctx.quick {
        ((19, 16), (20, 64))
    } else {
        ((20, 64), (21, 256))
    };
    let setup = |tr: &mut Tracer| -> Result<Figures, String> {
        let text = ctx.read("results_reference.txt")?;
        let experiment = |id: usize, number: u32, mm: Matmul, tr: &mut Tracer| {
            let rows = tr.leaf("bench.reference", id as u64, || {
                reference::figure_block(&text, number)
            })?;
            let want = reference::row(&rows, mm.version.name())?.clone();
            let image = tr.leaf("lbp-omp.build_s", id as u64, || mm.build());
            Ok::<_, String>(Experiment { mm, image, want })
        };
        let mut exact = Vec::new();
        for (i, v) in Version::ALL.into_iter().enumerate() {
            exact.push(experiment(i, f_exact, Matmul::new(h_exact, v), tr)?);
        }
        let hybrid = experiment(
            exact.len(),
            f_hybrid,
            Matmul::new(h_hybrid, Version::Tiled),
            tr,
        )?;
        Ok(Figures { exact, hybrid })
    };
    measure(ctx, setup, |st, tr| {
        let mut it = Iter::default();
        let runs = st
            .exact
            .iter()
            .map(|e| (e, false))
            .chain([(&st.hybrid, true)]);
        for (i, (e, is_hybrid)) in runs.enumerate() {
            let id = i as u64;
            let t = Instant::now();
            let open = tr.begin("bench.program", id);
            let result = if is_hybrid {
                hybrid(e, id, tr, &mut it)
            } else {
                exact(e, id, f_exact, tr, &mut it)
            };
            tr.end(open);
            it.latencies_s.push(t.elapsed().as_secs_f64());
            it.check(result.is_ok(), || {
                format!("{} h={}: {}", e.want.name, e.mm.harts, result.unwrap_err())
            });
            it.programs += 1;
            it.jobs += 1;
        }
        it
    })
}

fn exact(
    e: &Experiment,
    id: u64,
    figure: u32,
    tr: &mut Tracer,
    it: &mut Iter,
) -> Result<(), String> {
    let mut m = tr
        .leaf("lbp-sim.machine_new_s", id, || {
            let mut m = Machine::new(e.mm.config(), &e.image)?;
            load_inputs(&e.mm, |a, v| m.poke_shared(a, v))?;
            Ok::<_, SimError>(m)
        })
        .map_err(|err| format!("machine: {err}"))?;
    let run_t = Instant::now();
    let report = tr
        .leaf("lbp-sim.run_s", id, || m.run(BUDGET))
        .map_err(|err| format!("run: {err}"))?;
    let run_s = run_t.elapsed().as_secs_f64();
    let s = &report.stats;
    it.sim_stats(s);
    it.exact_run(s.cycles, m.config().cores, run_s);
    it.retired += s.retired();
    let product = tr.leaf("bench.check", id, || product_ok(&e.mm, &mut m));
    if !report.exited {
        return Err("the run did not exit".to_owned());
    }
    if !product {
        return Err("wrong product matrix".to_owned());
    }
    let got = (
        s.cycles,
        format!("{:.2}", s.ipc()),
        s.retired(),
        format!("{:.2}", s.locality()),
    );
    let want = &e.want;
    let expect = (
        want.cycles,
        want.ipc.clone(),
        want.retired,
        want.locality.clone(),
    );
    if got != expect {
        return Err(format!(
            "(cycles, IPC, retired, locality) {got:?}, Figure {figure} says {expect:?}"
        ));
    }
    Ok(())
}

fn hybrid(e: &Experiment, id: u64, tr: &mut Tracer, it: &mut Iter) -> Result<(), String> {
    let (mm, image, want) = (&e.mm, &e.image, &e.want);
    let mut fast = tr
        .leaf("lbp-sim.fast_new_s", id, || {
            let mut f = FastEngine::new(mm.config(), image)?;
            load_inputs(mm, |a, v| f.poke_shared(a, v))?;
            Ok::<_, SimError>(f)
        })
        .map_err(|e| format!("fast engine: {e}"))?;
    let warm = want.retired * 9 / 10;
    let summary = tr
        .leaf("lbp-sim.fast_run_s", id, || {
            fast.run(FastStop::Retired(warm), BUDGET)
        })
        .map_err(|e| format!("warm phase: {e}"))?;
    let mut m = tr
        .leaf("lbp-sim.materialize_s", id, || fast.materialize(image))
        .map_err(|e| format!("materialize: {e}"))?;
    let handoff = m.stats().cycles;
    let run_t = Instant::now();
    let report = tr
        .leaf("lbp-sim.run_s", id, || m.run(BUDGET))
        .map_err(|e| format!("cycle-exact tail: {e}"))?;
    let run_s = run_t.elapsed().as_secs_f64();
    let s = &report.stats;
    it.sim_stats(s);
    it.exact_run(s.cycles - handoff, m.config().cores, run_s);
    it.retired += s.retired();
    it.count("lbp-sim.fast_retired", summary.retired as f64);
    it.count("bench.ref_cycles", want.cycles as f64);
    let err_pct = (s.cycles as f64 - want.cycles as f64) / want.cycles as f64 * 100.0;
    it.count("bench.hybrid_cycle_err_pct", err_pct.abs());

    it.check(report.exited, || "hybrid run did not exit".to_owned());
    let product = tr.leaf("bench.check", id, || product_ok(mm, &mut m));
    it.check(product, || "wrong product matrix".to_owned());
    it.check(s.retired() == want.retired, || {
        format!(
            "retired {} (functional {}), reference {}",
            s.retired(),
            summary.retired,
            want.retired
        )
    });

    let state = tr.leaf("lbp-sim.snapshot_s", id, || m.snapshot());
    let bytes = tr.leaf("lbp-snap.encode_s", id, || lbp_snap::encode(&state));
    let back = tr
        .leaf("lbp-snap.decode_s", id, || lbp_snap::decode(&bytes))
        .map_err(|e| format!("decode: {e}"))?;
    let restored = tr
        .leaf("lbp-sim.restore_s", id, || Machine::restore(&back))
        .map_err(|e| format!("restore: {e}"))?;
    it.count("lbp-sim.state_bytes", state.as_bytes().len() as f64);
    it.count("lbp-snap.container_bytes", bytes.len() as f64);
    it.check(
        restored.stats().cycles == s.cycles && restored.arch_hash() == m.arch_hash(),
        || "snapshot round trip moved the cycle count or the architectural hash".to_owned(),
    );
    Ok(())
}
