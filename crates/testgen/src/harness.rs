//! The differential (lockstep) harness.
//!
//! Runs one generated program on two machines from identical initial
//! state, slicing fuel randomly, and asserts that every observable —
//! outcome, CPU state, retire-event stream, architecture-model
//! counters, and touched memory — is identical at every fuel boundary.
//! The two sides can be any pair of execution tiers, which is how the
//! threaded translation tier earns trust, or `run` vs a single-`step`
//! reference loop, which is how the fused interpreter earned it first.
//!
//! Failures shrink: the failing program is truncated by binary search
//! to the shortest prefix that still diverges, and the minimized case
//! is written to `target/difftest-failures/<label>-<seed>.sasm` as a
//! re-runnable canonical-assembly file.

use std::fs;
use std::path::PathBuf;

use strata_arch::{ArchModel, ArchProfile};
use strata_machine::{
    ExecTier, ExecutionObserver, Machine, MachineError, RetireEvent, StepOutcome, TierMutation,
};
use strata_stats::rng::SmallRng;

use crate::wordgen::WordProgram;

/// Records the retire stream and forwards it to a cost model.
pub struct Recorder {
    pub events: Vec<RetireEvent>,
    pub model: ArchModel,
}

impl Recorder {
    pub fn new(profile: ArchProfile) -> Recorder {
        Recorder {
            events: Vec::new(),
            model: ArchModel::new(profile),
        }
    }
}

impl ExecutionObserver for Recorder {
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.events.push(*ev);
        self.model.on_retire(ev);
    }
}

/// Reference semantics of [`Machine::run`], expressed with `step` only.
pub fn run_by_steps<O: ExecutionObserver>(
    m: &mut Machine,
    obs: &mut O,
    fuel: u64,
) -> Result<StepOutcome, MachineError> {
    for _ in 0..fuel {
        match m.step(obs)? {
            StepOutcome::Running => {}
            outcome => return Ok(outcome),
        }
    }
    Err(MachineError::OutOfFuel { steps: fuel })
}

/// Rotates architecture profiles across trials so cost-model state
/// (caches, predictors) is exercised under several geometries.
pub fn profile_for(trial: u64) -> ArchProfile {
    match trial % 4 {
        0 => ArchProfile::x86_like(),
        1 => ArchProfile::sparc_like(),
        2 => ArchProfile::mips_like(),
        _ => ArchProfile::ideal(),
    }
}

/// Options for one lockstep comparison.
#[derive(Debug, Clone)]
pub struct LockstepOptions {
    /// Tier driving side A (the reference side).
    pub tier_a: ExecTier,
    /// Tier driving side B (the side under test).
    pub tier_b: ExecTier,
    /// Cost-model profile applied to both sides.
    pub profile: ArchProfile,
    /// Stop comparing after this many total steps (programs need not
    /// terminate).
    pub max_steps: u64,
    /// Fuel slices are drawn uniformly from `1..max_slice`.
    pub max_slice: u64,
    /// Mutation-testing mode: at each fuel boundary, try to corrupt a
    /// translated side-exit target on side B (once). The run is then
    /// *expected* to diverge; see [`LockstepReport::corrupted`].
    pub corrupt_b: bool,
    /// Lowered-op mutation-testing mode: at each fuel boundary, try to
    /// inject the given defect class into side B's translated blocks
    /// (once). Like [`corrupt_b`](LockstepOptions::corrupt_b), a landed
    /// mutation is expected to diverge — and the same defect classes
    /// feed the translation validator's sensitivity tests.
    pub corrupt_b_lowered: Option<TierMutation>,
}

impl Default for LockstepOptions {
    fn default() -> LockstepOptions {
        LockstepOptions {
            tier_a: ExecTier::Interp,
            tier_b: ExecTier::Threaded(Default::default()),
            profile: ArchProfile::x86_like(),
            max_steps: 3_000,
            max_slice: 64,
            corrupt_b: false,
            corrupt_b_lowered: None,
        }
    }
}

/// A lockstep run that completed with both sides agreeing everywhere.
#[derive(Debug, Clone, Copy)]
pub struct LockstepReport {
    /// Instructions retired on each side.
    pub retired: usize,
    /// Whether the mutation hook actually landed (only meaningful with
    /// [`LockstepOptions::corrupt_b`]).
    pub corrupted: bool,
}

/// A detected divergence between the two sides.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Upper bound on retired instructions when the divergence surfaced.
    pub at_step: u64,
    /// Human-readable description of the first mismatching observable.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "after <= {} steps: {}", self.at_step, self.what)
    }
}

macro_rules! diverged {
    ($steps:expr, $($arg:tt)*) => {
        return Err(Divergence {
            at_step: $steps,
            what: format!($($arg)*),
        })
    };
}

/// Runs `prog` on both tiers in lockstep. `slice_seed` makes the fuel
/// slicing deterministic, so a failing `(program, slice_seed)` pair is
/// a complete reproducer.
pub fn run_lockstep(
    prog: &WordProgram,
    slice_seed: u64,
    opts: &LockstepOptions,
) -> Result<LockstepReport, Divergence> {
    let mut ma = prog.instantiate();
    let mut mb = prog.instantiate();
    ma.set_tier(opts.tier_a);
    mb.set_tier(opts.tier_b);
    let mut rec_a = Recorder::new(opts.profile.clone());
    let mut rec_b = Recorder::new(opts.profile.clone());

    let mut rng = SmallRng::seed_from_u64(slice_seed);
    let mut steps = 0u64;
    let mut checked_events = 0usize;
    let mut corrupted = false;
    while steps < opts.max_steps {
        let fuel = rng.gen_range(1u64..opts.max_slice.max(2));
        steps += fuel;
        let a = ma.run(&mut rec_a, fuel);
        let b = mb.run(&mut rec_b, fuel);
        if a != b {
            diverged!(steps, "outcome: a={a:?} b={b:?}");
        }
        if ma.cpu() != mb.cpu() {
            diverged!(steps, "cpu state: a={:?} b={:?}", ma.cpu(), mb.cpu());
        }
        if rec_a.events != rec_b.events {
            let i = rec_a
                .events
                .iter()
                .zip(&rec_b.events)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| rec_a.events.len().min(rec_b.events.len()));
            diverged!(
                steps,
                "retire streams (lengths {}/{}) first differ at event {}: a={:?} b={:?}",
                rec_a.events.len(),
                rec_b.events.len(),
                i,
                rec_a.events.get(i),
                rec_b.events.get(i)
            );
        }
        if let Some(what) = compare_models(&rec_a.model, &rec_b.model) {
            diverged!(steps, "arch model: {what}");
        }
        // Memory can only differ at stored addresses (the streams above
        // are equal, so both sides stored to the same places): compare
        // the words around every store retired in this slice.
        for ev in &rec_a.events[checked_events..] {
            if let Some(acc) = ev.mem.filter(|m| m.is_store) {
                let base = acc.addr & !3;
                let len = 8.min(ma.mem().size().saturating_sub(base));
                let wa = ma.mem().read_bytes(base, len);
                let wb = mb.mem().read_bytes(base, len);
                if wa != wb {
                    diverged!(
                        steps,
                        "memory at {base:#x} (store at {:#x}): a={wa:?} b={wb:?}",
                        acc.addr
                    );
                }
            }
        }
        checked_events = rec_a.events.len();
        if opts.corrupt_b && !corrupted {
            corrupted = mb.corrupt_translated_side_exit();
        }
        if let Some(mutation) = opts.corrupt_b_lowered {
            if !corrupted {
                corrupted = mb.corrupt_lowered_op(mutation);
            }
        }
        match a {
            Ok(StepOutcome::Halted)
            | Err(MachineError::OutOfBounds { .. })
            | Err(MachineError::UnalignedPc { .. })
            | Err(MachineError::Decode { .. })
            | Err(MachineError::WatchedStore { .. }) => break,
            Ok(StepOutcome::Running)
            | Ok(StepOutcome::Trap(_))
            | Err(MachineError::OutOfFuel { .. }) => {}
        }
    }
    // Terminal boundary: the whole memory image must agree.
    let size = ma.mem().size();
    let ia = ma.mem().read_bytes(0, size).expect("full image");
    let ib = mb.mem().read_bytes(0, size).expect("full image");
    if ia != ib {
        let at = ia.iter().zip(ib).position(|(x, y)| x != y).unwrap_or(0);
        diverged!(steps, "final memory image first differs at {at:#x}");
    }
    Ok(LockstepReport {
        retired: rec_a.events.len(),
        corrupted,
    })
}

fn compare_models(a: &ArchModel, b: &ArchModel) -> Option<String> {
    if a.stats() != b.stats() {
        return Some(format!("stats a={:?} b={:?}", a.stats(), b.stats()));
    }
    if a.total_cycles() != b.total_cycles() {
        return Some(format!(
            "total_cycles a={} b={}",
            a.total_cycles(),
            b.total_cycles()
        ));
    }
    let caches = [
        ("icache hits", a.icache().hits(), b.icache().hits()),
        ("icache misses", a.icache().misses(), b.icache().misses()),
        ("dcache hits", a.dcache().hits(), b.dcache().hits()),
        ("dcache misses", a.dcache().misses(), b.dcache().misses()),
        (
            "indirect mispredicts",
            a.indirect_mispredicts(),
            b.indirect_mispredicts(),
        ),
        (
            "cond mispredicts",
            a.cond_mispredicts(),
            b.cond_mispredicts(),
        ),
    ];
    for (name, x, y) in caches {
        if x != y {
            return Some(format!("{name} a={x} b={y}"));
        }
    }
    None
}

/// Shrinks a failing case by binary-search truncation: the shortest
/// prefix (plus a final `halt`) that still diverges under the same
/// slice seed. Divergence is not always monotone in program length, so
/// the result is re-verified and the original returned if shrinking
/// lost the bug.
pub fn shrink(prog: &WordProgram, slice_seed: u64, opts: &LockstepOptions) -> WordProgram {
    let fails = |keep: usize| run_lockstep(&prog.truncated(keep), slice_seed, opts).is_err();
    let mut lo = 1usize;
    let mut hi = prog.words.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let candidate = prog.truncated(hi);
    if run_lockstep(&candidate, slice_seed, opts).is_err() {
        candidate
    } else {
        prog.clone()
    }
}

/// Directory failing reproducers are written to.
pub fn failures_dir() -> PathBuf {
    PathBuf::from("target/difftest-failures")
}

/// Runs `cases` generated programs (seeds `base_seed..base_seed+cases`)
/// through the lockstep harness, rotating cost-model profiles. On the
/// first divergence the case is shrunk, written out as
/// `target/difftest-failures/<label>-<seed>.sasm`, and the test panics
/// with the divergence and the reproducer path.
pub fn run_difftest(label: &str, base_seed: u64, cases: u64, opts: &LockstepOptions) {
    let mut total_retired = 0usize;
    for case in 0..cases {
        let seed = base_seed + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let prog = WordProgram::generate(&mut rng);
        let mut opts = opts.clone();
        opts.profile = profile_for(case);
        match run_lockstep(&prog, seed, &opts) {
            Ok(report) => total_retired += report.retired,
            Err(div) => {
                let min = shrink(&prog, seed, &opts);
                let path = failures_dir().join(format!("{label}-{seed}.sasm"));
                let _ = fs::create_dir_all(failures_dir());
                let write_note = match fs::write(&path, min.to_sasm()) {
                    Ok(()) => format!(
                        "minimized reproducer ({} words): {}",
                        min.words.len(),
                        path.display()
                    ),
                    Err(e) => format!("could not write reproducer: {e}"),
                };
                panic!(
                    "difftest {label}: seed {seed} diverged {div}\n\
                     tiers: a={:?} b={:?}\n{write_note}",
                    opts.tier_a, opts.tier_b
                );
            }
        }
    }
    // Sanity-check the generator: a healthy fraction of programs must
    // actually execute (a case can legitimately retire nothing when its
    // first instruction faults, but not most of them).
    assert!(
        total_retired as u64 > cases * 100,
        "only {total_retired} instructions retired over {cases} cases — generator degenerate?"
    );
}
