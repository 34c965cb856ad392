//! Lockstep differential checking: the pipelined machine vs the
//! functional reference.
//!
//! The paper's determinism claim cuts both ways. Any schedule that
//! respects the fork/join rendezvous edges reaches the same architectural
//! state (*Deterministic Consistency*), so the functional [`FastEngine`]
//! is a per-hart reference for every program, parallel or not, and any
//! architectural divergence between it and the full [`Machine`] is a hard
//! bug (or an injected fault doing its job), never a scheduling artifact.
//!
//! The comparator runs the machine with a sink that collects each hart's
//! commit-order pc stream, then runs the reference with its commit log
//! on. The reference models no faults, so it stays clean under a
//! [`FaultPlan`](crate::FaultPlan). It reports the **first** architectural
//! divergence and names the hart: two pc streams part (the machine's exit
//! `p_ret` must sit where the reference parked), a final register
//! differs, or a shared word differs.
//!
//! `lbp-run --lockstep`, the fuzzer's `lockstep` oracle and the
//! differential tests call [`run_lockstep`]. `lbp-run --hybrid-bisect`
//! calls [`lockstep_divergence`], which sabotages the reference's copy of
//! the code and tolerates either engine failing.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use lbp_asm::Image;
use lbp_isa::{HartId, Reg, SHARED_BASE};

use crate::config::LbpConfig;
use crate::dump::SimFailure;
use crate::error::SimError;
use crate::fast::{FastEngine, FastStop};
use crate::machine::{Machine, RunReport};
use crate::trace::{Event, EventKind, TraceSink};

/// A sink that collects the machine's commit streams: each hart's
/// committed pcs in program order.
struct CommitStreams(Rc<RefCell<Vec<Vec<u32>>>>);

impl TraceSink for CommitStreams {
    fn record(&mut self, event: &Event) {
        if let EventKind::Commit { pc } = event.kind {
            self.0.borrow_mut()[event.hart.global() as usize].push(pc);
        }
    }
}

/// The first architectural difference between the machine and the
/// functional reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The hart's commit streams part at commit number `commit`.
    Stream {
        /// The hart whose streams differ.
        hart: HartId,
        /// 0-based index into the hart's commit stream.
        commit: u64,
        /// The pc the machine retired there (`None`: its stream ended).
        machine_pc: Option<u32>,
        /// The pc the reference retired there (`None`: its stream ended).
        oracle_pc: Option<u32>,
        /// The last pc both retired on this hart. With a corrupted branch
        /// or a mis-modeled instruction, this *is* the guilty instruction.
        last_agreed: Option<u32>,
    },
    /// A register differs after both finished.
    Register {
        /// The hart owning the register.
        hart: HartId,
        /// The architectural register.
        reg: Reg,
        /// The machine's final value.
        machine: u32,
        /// The reference's final value.
        oracle: u32,
    },
    /// A shared-memory word differs after both finished.
    Memory {
        /// The hart whose exit `p_ret` ended the run, so the one that
        /// observes the final shared state (the boot hart when neither
        /// engine reached the exit).
        hart: HartId,
        /// The word address.
        addr: u32,
        /// The machine's final value.
        machine: u32,
        /// The reference's final value.
        oracle: u32,
    },
}

impl Divergence {
    /// The hart the divergence is attributed to.
    pub fn hart(&self) -> HartId {
        match *self {
            Divergence::Stream { hart, .. }
            | Divergence::Register { hart, .. }
            | Divergence::Memory { hart, .. } => hart,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engines diverge at hart {}", self.hart())?;
        match *self {
            Divergence::Stream {
                commit,
                machine_pc,
                oracle_pc,
                last_agreed,
                ..
            } => {
                let side = |pc: Option<u32>| match pc {
                    Some(pc) => format!("retires pc {pc:#010x}"),
                    None => "has already stopped".to_owned(),
                };
                writeln!(f, ", commit #{commit}")?;
                writeln!(f, "  functional:  {}", side(oracle_pc))?;
                write!(f, "  cycle-exact: {}", side(machine_pc))?;
                if let Some(pc) = last_agreed {
                    write!(f, "\n  last agreed instruction: pc {pc:#010x}")?;
                }
                Ok(())
            }
            Divergence::Register {
                reg,
                machine,
                oracle,
                ..
            } => write!(
                f,
                ": final {reg} is {machine:#x} cycle-exact, {oracle:#x} functional"
            ),
            Divergence::Memory {
                addr,
                machine,
                oracle,
                ..
            } => write!(
                f,
                ": final shared word at {addr:#x} is {machine:#x} cycle-exact, \
                 {oracle:#x} functional"
            ),
        }
    }
}

/// Why a lockstep check did not complete cleanly.
#[derive(Debug)]
pub enum LockstepError {
    /// An engine could not even be built (bad image or fault plan).
    Setup(SimError),
    /// The machine run itself failed (dump attached).
    Machine(Box<SimFailure>),
    /// The two engines disagreed architecturally.
    Diverged(Divergence),
}

impl fmt::Display for LockstepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockstepError::Setup(e) => write!(f, "could not build the machine: {e}"),
            LockstepError::Machine(fail) => write!(f, "machine run failed: {fail}"),
            LockstepError::Diverged(d) => write!(f, "lockstep divergence: {d}"),
        }
    }
}

impl std::error::Error for LockstepError {}

/// The result of a clean (non-diverging) lockstep run.
#[derive(Debug, Clone)]
pub struct LockstepReport {
    /// The machine's run report.
    pub report: RunReport,
    /// Instructions compared in lockstep: the machine's commits over
    /// every hart.
    pub commits: u64,
}

/// Runs `image` on a machine configured by `cfg` and checks it in
/// lockstep against the functional reference.
///
/// # Errors
///
/// [`LockstepError::Diverged`] carries the first architectural
/// difference; the other variants mean the machine could not be built or
/// could not finish.
pub fn run_lockstep(
    cfg: LbpConfig,
    image: &Image,
    max_cycles: u64,
) -> Result<LockstepReport, LockstepError> {
    let (mut machine, streams) = machine_with_streams(&cfg, image).map_err(LockstepError::Setup)?;
    let report = machine
        .run_diagnosed(max_cycles)
        .map_err(LockstepError::Machine)?;
    let streams = streams.take();
    let commits = streams.iter().map(|s| s.len() as u64).sum();
    match compare(&mut machine, &streams, cfg, image, &[]).map_err(LockstepError::Setup)? {
        Some(d) => Err(LockstepError::Diverged(d)),
        None => Ok(LockstepReport { report, commits }),
    }
}

/// The error-tolerant comparator behind `lbp-run --hybrid-bisect`: XORs
/// each `(pc, xor)` of `sabotage` into the reference's copy of the code
/// only, runs both engines, and returns their first divergence (`None`
/// when they agree, the expected verdict for a clean image).
///
/// A failing run on either side is not an error: the streams up to the
/// failure still localize where the two engines part ways.
///
/// # Errors
///
/// [`SimError`] when either engine rejects the image or configuration.
pub fn lockstep_divergence(
    cfg: LbpConfig,
    image: &Image,
    max_cycles: u64,
    sabotage: &[(u32, u32)],
) -> Result<Option<Divergence>, SimError> {
    let (mut machine, streams) = machine_with_streams(&cfg, image)?;
    let _ = machine.run(max_cycles);
    compare(&mut machine, &streams.take(), cfg, image, sabotage)
}

type Streams = Rc<RefCell<Vec<Vec<u32>>>>;

fn machine_with_streams(cfg: &LbpConfig, image: &Image) -> Result<(Machine, Streams), SimError> {
    let mut machine = Machine::new(cfg.clone(), image)?;
    let streams = Rc::new(RefCell::new(vec![Vec::new(); cfg.harts()]));
    machine.set_sink(Box::new(CommitStreams(Rc::clone(&streams))));
    Ok((machine, streams))
}

/// Runs the functional reference (with `sabotage` applied) and compares
/// it against the machine's final state and commit streams `exact`.
fn compare(
    machine: &mut Machine,
    exact: &[Vec<u32>],
    cfg: LbpConfig,
    image: &Image,
    sabotage: &[(u32, u32)],
) -> Result<Option<Divergence>, SimError> {
    let shared_bytes = u32::try_from(cfg.shared_bytes()).unwrap_or(u32::MAX);
    let mut fast = FastEngine::new(cfg, image)?;
    fast.enable_commit_log();
    for &(pc, xor) in sabotage {
        fast.sabotage_code(pc, xor);
    }
    // A correct reference retires one instruction fewer than the machine
    // (it parks before the exit) and takes at most one extra step per
    // hart for a fork request that waited. A reference that faults,
    // deadlocks or runs past this budget stops early, and its stream then
    // parts from the machine's at the hart and commit where it went wrong.
    let budget = exact.iter().map(|s| s.len() as u64).sum::<u64>() + exact.len() as u64;
    let _ = fast.run(FastStop::Exit, budget);
    let exit = fast.exit_point();

    for (h, machine_stream) in exact.iter().enumerate() {
        let hart = HartId::new(h as u32);
        let parked = exit.filter(|&(x, _)| x == hart).map(|(_, pc)| pc);
        let reference: Vec<u32> = fast.commit_log()[h].iter().copied().chain(parked).collect();
        if reference != *machine_stream {
            let i = reference
                .iter()
                .zip(machine_stream)
                .take_while(|(x, y)| x == y)
                .count();
            return Ok(Some(Divergence::Stream {
                hart,
                commit: i as u64,
                machine_pc: machine_stream.get(i).copied(),
                oracle_pc: reference.get(i).copied(),
                last_agreed: i.checked_sub(1).map(|p| reference[p]),
            }));
        }
    }

    // Final architectural state: every hart's registers (through the
    // machine's renaming) and the whole shared space, word by word.
    for h in 0..exact.len() {
        let hart = HartId::new(h as u32);
        for reg in Reg::all().skip(1) {
            let (machine, oracle) = (machine.reg(hart, reg), fast.reg(hart, reg));
            if machine != oracle {
                return Ok(Some(Divergence::Register {
                    hart,
                    reg,
                    machine,
                    oracle,
                }));
            }
        }
    }
    let hart = exit.map_or(HartId::FIRST, |(h, _)| h);
    for word in 0..(shared_bytes / 4) {
        let addr = SHARED_BASE + word * 4;
        let machine = machine.peek_shared(addr).unwrap_or(0);
        let oracle = fast.peek_shared(addr).unwrap_or(0);
        if machine != oracle {
            return Ok(Some(Divergence::Memory {
                hart,
                addr,
                machine,
                oracle,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A countdown loop with a multiply and a store per iteration.
    fn loop_image() -> Image {
        lbp_asm::assemble(
            "main:
                li   t0, -1
                li   a0, 0
                li   a1, 5
                la   a2, out
            loop:
                mul  a3, a1, a1
                sw   a3, 0(a2)
                addi a1, a1, -1
                bnez a1, loop
                p_ret a0, t0
            .data
            out: .word 0",
        )
        .unwrap()
    }

    #[test]
    fn agreeing_engines_report_no_divergence() {
        let d = lockstep_divergence(LbpConfig::cores(1), &loop_image(), 100_000, &[]).unwrap();
        assert!(d.is_none(), "clean engines must agree: {d:?}");
    }

    #[test]
    fn sabotage_is_localized_to_the_exact_instruction() {
        let image = loop_image();
        // Corrupt the loop's closing branch in the functional copy:
        // flipping bit 10 of `bnez a1, loop` changes its offset, so the
        // first commit *after* the branch lands somewhere else.
        let branch_pc = image
            .symbol("loop")
            .map(|a| a + 12)
            .expect("the loop label resolves");
        let d = lockstep_divergence(
            LbpConfig::cores(1),
            &image,
            100_000,
            &[(branch_pc, 1 << 10)],
        )
        .unwrap()
        .expect("a corrupted branch must diverge");
        let Divergence::Stream {
            hart,
            machine_pc,
            oracle_pc,
            last_agreed,
            ..
        } = d
        else {
            panic!("expected a commit-stream divergence, got {d}");
        };
        assert_eq!(hart, HartId::FIRST);
        assert_eq!(
            last_agreed,
            Some(branch_pc),
            "the last agreed instruction is the sabotaged branch: {d}"
        );
        assert_ne!(oracle_pc, machine_pc, "{d}");
    }
}
