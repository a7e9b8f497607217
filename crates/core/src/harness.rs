//! Native (untranslated) execution — the baseline every slowdown is
//! measured against.

use strata_arch::{ArchModel, ArchProfile};
use strata_isa::{ControlKind, Reg};
use strata_machine::syscall::{SyscallState, SDT_TRAP_BASE};
use strata_machine::{
    layout, ExecTier, ExecutionObserver, Machine, MachineError, NullObserver, Program, RetireEvent,
    StepOutcome,
};

use crate::SdtError;

/// Measurements from a native (untranslated) run of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRun {
    /// Syscall checksum — the program's observable result.
    pub checksum: u32,
    /// Total cycles under the architecture model.
    pub total_cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Dynamic count of indirect jumps (`jr`, `jmem`).
    pub indirect_jumps: u64,
    /// Dynamic count of indirect calls (`callr`).
    pub indirect_calls: u64,
    /// Dynamic count of returns.
    pub returns: u64,
    /// Dynamic count of direct calls.
    pub direct_calls: u64,
    /// Dynamic count of conditional branches.
    pub cond_branches: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Final register file (for state-equivalence checks in tests).
    pub regs: [u32; Reg::COUNT],
}

impl NativeRun {
    /// Dynamic count of all indirect branches (jumps + calls + returns) —
    /// the paper's "IB" count.
    pub fn indirect_branches(&self) -> u64 {
        self.indirect_jumps + self.indirect_calls + self.returns
    }
}

/// The native run's observer: costs every retire under each profile's
/// model, counts retires and branch classes, and forwards each event to
/// one caller-supplied observer.
struct NativeObserver<'a, O> {
    models: Vec<ArchModel>,
    extra: &'a mut O,
    retired: u64,
    indirect_jumps: u64,
    indirect_calls: u64,
    returns: u64,
    direct_calls: u64,
    cond_branches: u64,
}

impl<O: ExecutionObserver> ExecutionObserver for NativeObserver<'_, O> {
    #[inline]
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.retired += 1;
        for model in &mut self.models {
            model.cost_of(ev);
        }
        self.extra.on_retire(ev);
        match ev.control.kind {
            ControlKind::Indirect => self.indirect_jumps += 1,
            ControlKind::Call if ev.control.indirect => self.indirect_calls += 1,
            ControlKind::Call => self.direct_calls += 1,
            ControlKind::Return => self.returns += 1,
            ControlKind::Conditional => self.cond_branches += 1,
            _ => {}
        }
    }
}

/// Runs `program` directly (no translation) under the cost model for
/// `profile`.
///
/// # Errors
///
/// Returns [`SdtError::ReservedTrap`] if the program uses an SDT-reserved
/// trap code, and machine faults (including fuel exhaustion) as
/// [`SdtError::Machine`].
pub fn run_native(
    program: &Program,
    profile: ArchProfile,
    fuel: u64,
) -> Result<NativeRun, SdtError> {
    run_native_tiered(program, profile, fuel, ExecTier::Interp)
}

/// [`run_native`] with an explicit execution tier.
///
/// The tier decides how the host executes guest instructions (pure
/// interpretation vs direct-threaded superblock translation of hot
/// regions); the retire-event stream — and therefore every charged
/// cycle, cache access, and predictor outcome — is bit-identical across
/// tiers, so tier choice can never move a reported metric. Only
/// wall-clock changes.
///
/// # Errors
///
/// Same contract as [`run_native`].
pub fn run_native_tiered(
    program: &Program,
    profile: ArchProfile,
    fuel: u64,
    tier: ExecTier,
) -> Result<NativeRun, SdtError> {
    let (mut runs, _) = run_native_observed(program, &[profile], fuel, tier, &mut NullObserver)?;
    Ok(runs.remove(0))
}

/// The one native run-to-halt loop: loads `program` on a fresh machine
/// with `tier` installed, services its syscalls, and runs it to `halt`
/// within `fuel` retired instructions. The guest runs once however many
/// `profiles` are costed; every retire also reaches `extra`.
///
/// Returns one [`NativeRun`] per profile, in order (none for an empty
/// slice), and the final machine, whose tier state the translation
/// validator inspects.
///
/// # Errors
///
/// [`SdtError::ReservedTrap`] if the program uses an SDT-reserved trap
/// code; machine faults as [`SdtError::Machine`]. Running out of fuel
/// reports the requested budget, `OutOfFuel { steps: fuel }`, however
/// many traps were serviced before.
pub fn run_native_observed<O: ExecutionObserver>(
    program: &Program,
    profiles: &[ArchProfile],
    fuel: u64,
    tier: ExecTier,
    extra: &mut O,
) -> Result<(Vec<NativeRun>, Machine), SdtError> {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut machine)?;
    machine.set_tier(tier);
    let mut syscalls = SyscallState::new();
    let mut obs = NativeObserver {
        models: profiles.iter().cloned().map(ArchModel::new).collect(),
        extra,
        retired: 0,
        indirect_jumps: 0,
        indirect_calls: 0,
        returns: 0,
        direct_calls: 0,
        cond_branches: 0,
    };

    loop {
        let left = fuel - obs.retired;
        match machine.run(&mut obs, left) {
            Ok(StepOutcome::Halted) => break,
            Ok(StepOutcome::Trap(code)) if code < SDT_TRAP_BASE => {
                syscalls.handle(code, &machine);
            }
            Ok(StepOutcome::Trap(code)) => {
                return Err(SdtError::ReservedTrap {
                    code,
                    pc: machine.cpu().pc.wrapping_sub(4),
                })
            }
            Ok(StepOutcome::Running) => unreachable!("run returns only on halt/trap/error"),
            Err(MachineError::OutOfFuel { .. }) => {
                return Err(MachineError::OutOfFuel { steps: fuel }.into())
            }
            Err(e) => return Err(e.into()),
        }
    }

    let checksum = syscalls.checksum();
    let regs = *machine.cpu().regs();
    let runs = obs
        .models
        .iter()
        .map(|model| NativeRun {
            checksum,
            total_cycles: model.total_cycles(),
            instructions: obs.retired,
            indirect_jumps: obs.indirect_jumps,
            indirect_calls: obs.indirect_calls,
            returns: obs.returns,
            direct_calls: obs.direct_calls,
            cond_branches: obs.cond_branches,
            icache_misses: model.icache().misses(),
            dcache_misses: model.dcache().misses(),
            regs,
        })
        .collect();
    Ok((runs, machine))
}
