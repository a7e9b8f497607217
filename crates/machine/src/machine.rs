use std::fmt;

use strata_isa::{ControlKind, DecodeError, Flags, Instr};

use crate::event::{ControlEvent, ExecutionObserver, MemAccess, RetireEvent};
use crate::tier::{ExitKind, TierBlockMeta, TierEngine, TierMutation};
use crate::{Cpu, ExecTier, Memory, TierStats};

/// Errors surfaced by machine execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// A memory access touched bytes outside of memory.
    OutOfBounds { addr: u32, len: u32 },
    /// The program counter was not 4-byte aligned.
    UnalignedPc { pc: u32 },
    /// The word at `pc` did not decode to an instruction.
    Decode { pc: u32, source: DecodeError },
    /// [`Machine::run`] exhausted its step budget.
    OutOfFuel { steps: u64 },
    /// The store at `pc` overlapped the [`Memory`] watch range at `addr`.
    /// It was refused before writing anything, and `pc` still points at
    /// it.
    WatchedStore { pc: u32, addr: u32 },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfBounds { addr, len } => {
                write!(
                    f,
                    "memory access of {len} byte(s) at {addr:#x} is out of bounds"
                )
            }
            MachineError::UnalignedPc { pc } => write!(f, "unaligned pc {pc:#x}"),
            MachineError::Decode { pc, source } => write!(f, "at pc {pc:#x}: {source}"),
            MachineError::OutOfFuel { steps } => {
                write!(f, "execution exceeded the step budget of {steps}")
            }
            MachineError::WatchedStore { pc, addr } => {
                write!(f, "store at pc {pc:#x} hit the watched address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Decode { source, .. } => Some(source),
            MachineError::OutOfBounds { .. }
            | MachineError::UnalignedPc { .. }
            | MachineError::OutOfFuel { .. }
            | MachineError::WatchedStore { .. } => None,
        }
    }
}

/// Result of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally; execution continues.
    Running,
    /// A `trap` instruction retired. `pc` already points at the following
    /// instruction; the embedder services the trap and resumes (possibly at
    /// a different `pc`).
    Trap(u16),
    /// A `halt` instruction retired.
    Halted,
}

/// A defect [`Machine::corrupt_watch`] injects into the store watch
/// range, for mutation-testing the exact self-modifying-code stop.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchMutation {
    /// The range loses its last word.
    DropLastWord,
    /// The range becomes empty.
    Disable,
}

/// The simulated SimRISC machine: CPU state plus memory.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    mem: Memory,
    /// Threaded-tier state; `None` runs the pure interpreter (the
    /// default — no field access on the interpreter's per-instruction
    /// path, only one check at [`Machine::run`] entry).
    tier: Option<Box<TierEngine>>,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of zeroed memory and the stack
    /// pointer initialized to the top of memory.
    pub fn new(mem_bytes: u32) -> Machine {
        let mem = Memory::new(mem_bytes);
        let mut cpu = Cpu::new();
        cpu.set_sp(mem.size());
        Machine {
            cpu,
            mem,
            tier: None,
        }
    }

    /// Selects the execution tier driving [`Machine::run`].
    ///
    /// Switching to [`ExecTier::Threaded`] installs a fresh tier engine
    /// (empty translation cache, zeroed profile); switching back to
    /// [`ExecTier::Interp`] discards it. Guest-visible behavior is
    /// identical either way — only wall-clock changes.
    pub fn set_tier(&mut self, tier: ExecTier) {
        self.tier = match tier {
            ExecTier::Interp => None,
            ExecTier::Threaded(cfg) => Some(Box::new(TierEngine::new(cfg, &self.mem))),
        };
    }

    /// Translation-tier counters, when the threaded tier is active.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| t.stats())
    }

    /// Mutation-testing hook: corrupts the side-exit target of the first
    /// translated conditional branch, if any. See
    /// `TierEngine::corrupt_side_exit`.
    #[doc(hidden)]
    pub fn corrupt_translated_side_exit(&mut self) -> bool {
        self.tier
            .as_mut()
            .is_some_and(|tier| tier.corrupt_side_exit())
    }

    /// Structural metadata for every live translated superblock — the
    /// threaded tier's analogue of `Sdt::cache_meta()`, consumed by the
    /// translation validator in `strata-analysis`. Empty when the
    /// threaded tier is off, nothing is hot yet, or the translation
    /// cache is stale (pending flush at the next block-head arrival).
    pub fn tier_blocks(&self) -> Vec<TierBlockMeta> {
        self.tier
            .as_ref()
            .map(|tier| tier.export_blocks(self.mem.code_version()))
            .unwrap_or_default()
    }

    /// Mutation-testing hook: injects one lowered-op defect of class `m`
    /// into the first eligible translated op (the stored guest
    /// instruction stays intact, exactly like a lowering bug). Returns
    /// `false` when the tier is off or nothing eligible is translated.
    #[doc(hidden)]
    pub fn corrupt_lowered_op(&mut self, m: TierMutation) -> bool {
        self.tier
            .as_mut()
            .is_some_and(|tier| tier.corrupt_lowered(m))
    }

    /// Mutation-testing hook: corrupts the memory watch range with
    /// defect `m`. Returns `false` when nothing is watched.
    #[doc(hidden)]
    pub fn corrupt_watch(&mut self, m: WatchMutation) -> bool {
        let w = self.mem.watch();
        if w.is_empty() {
            return false;
        }
        self.mem.set_watch(match m {
            WatchMutation::DropLastWord => w.start..w.end.saturating_sub(4),
            WatchMutation::Disable => 0..0,
        });
        true
    }

    /// Shared view of CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable view of CPU state (the SDT runtime uses this while servicing
    /// traps).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Shared view of memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Writes a sequence of machine words (code) starting at `addr` and
    /// registers the span as an executable region, predecoding it.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::OutOfBounds`] if the words do not fit.
    pub fn write_code(&mut self, addr: u32, words: &[u32]) -> Result<(), MachineError> {
        for (i, w) in words.iter().enumerate() {
            self.mem.write_u32(addr + i as u32 * 4, *w)?;
        }
        self.mem.register_code_region(addr, words.len() as u32 * 4);
        Ok(())
    }

    /// Executes instructions until `halt`, a `trap`, an error, or `fuel`
    /// retired instructions.
    ///
    /// This is the hot loop of every simulation. Each iteration tries the
    /// predecoded fast path — a page-table load with the alignment and
    /// bounds checks folded into two masks, no error-path code — and only
    /// falls back to the general fetch (decode, memoize, or report the
    /// error) on the first execution of a word, after self-modifying code
    /// invalidated it, or when `pc` left mapped code entirely. Guest
    /// semantics are bit-identical to calling [`Machine::step`] in a
    /// loop; the fuel budget is sliced off one instruction at a time, so
    /// resuming after a trap or out-of-fuel return observes exactly the
    /// same states.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (a store into the memory watch range
    /// is [`MachineError::WatchedStore`]) and returns
    /// [`MachineError::OutOfFuel`] if the budget is exhausted before
    /// `halt`/`trap`.
    pub fn run<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        if self.tier.is_some() {
            return self.run_tiered(observer, fuel);
        }
        for _ in 0..fuel {
            let pc = self.cpu.pc;
            let instr = match self.mem.fetch_predecoded(pc) {
                Some(instr) => instr,
                None => self.mem.fetch(pc)?,
            };
            match self.exec(pc, instr, observer)? {
                StepOutcome::Running => {}
                outcome => return Ok(outcome),
            }
        }
        Err(MachineError::OutOfFuel { steps: fuel })
    }

    /// [`Machine::run`] with the threaded tier installed: profile region
    /// heads at control-transfer arrivals, dispatch into translated
    /// superblocks when one starts at `pc`, interpret everything else.
    /// Guest semantics, retire streams, and fuel accounting are
    /// bit-identical to the interpreter loop above.
    fn run_tiered<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        let mut tier = self.tier.take().expect("run_tiered requires a tier");
        let result = self.run_tiered_inner(&mut tier, observer, fuel);
        self.tier = Some(tier);
        result
    }

    fn run_tiered_inner<O: ExecutionObserver>(
        &mut self,
        tier: &mut TierEngine,
        observer: &mut O,
        fuel: u64,
    ) -> Result<StepOutcome, MachineError> {
        let mut left = fuel;
        // `arrived` is true exactly when `pc` was reached by a control
        // transfer (or is the resume point): those are the only pcs that
        // can head a superblock, so lookup/profile work happens only
        // there and straight-line interpretation stays one compare away
        // from the untiered loop.
        let mut arrived = true;
        while left > 0 {
            let pc = self.cpu.pc;
            if arrived {
                tier.sync_version(self.mem.code_version());
                if let Some(idx) = tier.lookup(pc) {
                    let exit = tier.exec_block(idx, &mut self.cpu, &mut self.mem, left, observer);
                    left -= exit.retired;
                    match exit.kind {
                        ExitKind::Continue => continue,
                        ExitKind::Trap(code) => return Ok(StepOutcome::Trap(code)),
                        ExitKind::Halted => return Ok(StepOutcome::Halted),
                        ExitKind::Fault(err) => return Err(err),
                    }
                }
                if tier.profile(pc, &self.mem) {
                    continue; // freshly translated: re-dispatch at `pc`
                }
            }
            let instr = match self.mem.fetch_predecoded(pc) {
                Some(instr) => instr,
                None => self.mem.fetch(pc)?,
            };
            match self.exec(pc, instr, observer)? {
                StepOutcome::Running => {}
                outcome => return Ok(outcome),
            }
            left -= 1;
            arrived = self.cpu.pc != pc.wrapping_add(4);
        }
        Err(MachineError::OutOfFuel { steps: fuel })
    }

    /// Fetches, decodes, executes, and retires one instruction, notifying
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Returns fetch/decode errors, out-of-bounds memory accesses and
    /// [`MachineError::WatchedStore`] for stores overlapping the memory
    /// watch range. CPU state is unchanged when an error is returned
    /// mid-instruction except that no partial writes are observable (each
    /// instruction performs at most one memory write, attempted before
    /// register state is updated).
    pub fn step<O: ExecutionObserver>(
        &mut self,
        observer: &mut O,
    ) -> Result<StepOutcome, MachineError> {
        let pc = self.cpu.pc;
        let instr = self.mem.fetch(pc)?;
        self.exec(pc, instr, observer)
    }

    /// Executes one already-fetched instruction and retires it. Shared by
    /// [`Machine::step`] and the fused [`Machine::run`] loop, so the two
    /// paths cannot drift.
    #[inline]
    fn exec<O: ExecutionObserver>(
        &mut self,
        pc: u32,
        instr: Instr,
        observer: &mut O,
    ) -> Result<StepOutcome, MachineError> {
        use Instr::*;

        let next = pc.wrapping_add(4);

        let mut mem_access: Option<MemAccess> = None;
        let mut control = ControlEvent {
            kind: instr.control_kind(),
            taken: false,
            target: next,
            indirect: false,
        };
        let mut outcome = StepOutcome::Running;
        let cpu = &mut self.cpu;
        let mem = &mut self.mem;

        macro_rules! load_w {
            ($addr:expr) => {{
                let a = $addr;
                mem_access = Some(MemAccess {
                    addr: a,
                    len: 4,
                    is_store: false,
                });
                mem.read_u32(a)?
            }};
        }
        macro_rules! store_w {
            ($addr:expr, $val:expr) => {{
                let a = $addr;
                mem_access = Some(MemAccess {
                    addr: a,
                    len: 4,
                    is_store: true,
                });
                mem.guest_write_u32(pc, a, $val)?
            }};
        }

        let mut new_pc = next;
        match instr {
            Add { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1).wrapping_add(cpu.reg(rs2))),
            Sub { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1).wrapping_sub(cpu.reg(rs2))),
            Mul { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1).wrapping_mul(cpu.reg(rs2))),
            Divu { rd, rs1, rs2 } => {
                let d = cpu.reg(rs2);
                let v = cpu.reg(rs1).checked_div(d).unwrap_or(u32::MAX);
                cpu.set_reg(rd, v);
            }
            Remu { rd, rs1, rs2 } => {
                let d = cpu.reg(rs2);
                let v = if d == 0 {
                    cpu.reg(rs1)
                } else {
                    cpu.reg(rs1) % d
                };
                cpu.set_reg(rd, v);
            }
            And { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1) & cpu.reg(rs2)),
            Or { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1) | cpu.reg(rs2)),
            Xor { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1) ^ cpu.reg(rs2)),
            Sll { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1) << (cpu.reg(rs2) & 31)),
            Srl { rd, rs1, rs2 } => cpu.set_reg(rd, cpu.reg(rs1) >> (cpu.reg(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                cpu.set_reg(rd, ((cpu.reg(rs1) as i32) >> (cpu.reg(rs2) & 31)) as u32)
            }
            Mov { rd, rs } => cpu.set_reg(rd, cpu.reg(rs)),

            Addi { rd, rs1, imm } => cpu.set_reg(rd, cpu.reg(rs1).wrapping_add(imm as i32 as u32)),
            Andi { rd, rs1, imm } => cpu.set_reg(rd, cpu.reg(rs1) & imm as u32),
            Ori { rd, rs1, imm } => cpu.set_reg(rd, cpu.reg(rs1) | imm as u32),
            Xori { rd, rs1, imm } => cpu.set_reg(rd, cpu.reg(rs1) ^ imm as u32),
            Slli { rd, rs1, shamt } => cpu.set_reg(rd, cpu.reg(rs1) << shamt),
            Srli { rd, rs1, shamt } => cpu.set_reg(rd, cpu.reg(rs1) >> shamt),
            Srai { rd, rs1, shamt } => cpu.set_reg(rd, ((cpu.reg(rs1) as i32) >> shamt) as u32),
            Lui { rd, imm } => cpu.set_reg(rd, (imm as u32) << 16),

            Lw { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                let v = load_w!(a);
                cpu.set_reg(rd, v);
            }
            Sw { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                store_w!(a, cpu.reg(rs2));
            }
            Lb { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                mem_access = Some(MemAccess {
                    addr: a,
                    len: 1,
                    is_store: false,
                });
                let v = mem.read_u8(a)? as i8 as i32 as u32;
                cpu.set_reg(rd, v);
            }
            Lbu { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                mem_access = Some(MemAccess {
                    addr: a,
                    len: 1,
                    is_store: false,
                });
                let v = mem.read_u8(a)? as u32;
                cpu.set_reg(rd, v);
            }
            Sb { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off as i32 as u32);
                mem_access = Some(MemAccess {
                    addr: a,
                    len: 1,
                    is_store: true,
                });
                mem.guest_write_u8(pc, a, cpu.reg(rs2) as u8)?;
            }
            Lwa { rd, addr } => {
                let v = load_w!(addr);
                cpu.set_reg(rd, v);
            }
            Swa { rs, addr } => store_w!(addr, cpu.reg(rs)),
            Push { rs } => {
                let val = cpu.reg(rs);
                let sp = cpu.sp().wrapping_sub(4);
                store_w!(sp, val);
                cpu.set_sp(sp);
            }
            Pop { rd } => {
                let sp = cpu.sp();
                let v = load_w!(sp);
                cpu.set_sp(sp.wrapping_add(4));
                cpu.set_reg(rd, v); // rd == sp overrides the increment, like x86
            }
            Pushf => {
                let sp = cpu.sp().wrapping_sub(4);
                store_w!(sp, cpu.flags.to_bits());
                cpu.set_sp(sp);
            }
            Popf => {
                let sp = cpu.sp();
                let v = load_w!(sp);
                cpu.set_sp(sp.wrapping_add(4));
                cpu.flags = Flags::from_bits(v);
            }

            Cmp { rs1, rs2 } => cpu.flags = Flags::from_compare(cpu.reg(rs1), cpu.reg(rs2)),
            Cmpi { rs1, imm } => cpu.flags = Flags::from_compare(cpu.reg(rs1), imm as i32 as u32),

            Beq { off } => branch(cpu.flags.eq, off, pc, &mut new_pc, &mut control),
            Bne { off } => branch(!cpu.flags.eq, off, pc, &mut new_pc, &mut control),
            Blt { off } => branch(cpu.flags.lt, off, pc, &mut new_pc, &mut control),
            Bge { off } => branch(!cpu.flags.lt, off, pc, &mut new_pc, &mut control),
            Bltu { off } => branch(cpu.flags.ltu, off, pc, &mut new_pc, &mut control),
            Bgeu { off } => branch(!cpu.flags.ltu, off, pc, &mut new_pc, &mut control),

            Jmp { target } => {
                new_pc = target;
                control.taken = true;
                control.target = target;
            }
            Call { target } => {
                let sp = cpu.sp().wrapping_sub(4);
                store_w!(sp, next);
                cpu.set_sp(sp);
                new_pc = target;
                control.taken = true;
                control.target = target;
            }
            Jr { rs } => {
                new_pc = cpu.reg(rs);
                control.taken = true;
                control.target = new_pc;
                control.indirect = true;
            }
            Callr { rs } => {
                let target = cpu.reg(rs);
                let sp = cpu.sp().wrapping_sub(4);
                store_w!(sp, next);
                cpu.set_sp(sp);
                new_pc = target;
                control.taken = true;
                control.target = target;
                control.indirect = true;
            }
            Ret => {
                let sp = cpu.sp();
                let target = load_w!(sp);
                cpu.set_sp(sp.wrapping_add(4));
                new_pc = target;
                control.taken = true;
                control.target = target;
                control.indirect = true;
            }
            Jmem { addr } => {
                let target = load_w!(addr);
                new_pc = target;
                control.taken = true;
                control.target = target;
                control.indirect = true;
            }

            Trap { code } => outcome = StepOutcome::Trap(code),
            Halt => outcome = StepOutcome::Halted,
            Nop => {}
        }

        self.cpu.pc = new_pc;
        observer.on_retire(&RetireEvent {
            pc,
            instr,
            class: instr.class(),
            mem: mem_access,
            control,
        });
        Ok(outcome)
    }
}

#[inline]
fn branch(cond: bool, off: i16, pc: u32, new_pc: &mut u32, control: &mut ControlEvent) {
    debug_assert_eq!(control.kind, ControlKind::Conditional);
    if cond {
        let target = pc
            .wrapping_add(4)
            .wrapping_add((off as i32 as u32).wrapping_mul(4));
        *new_pc = target;
        control.taken = true;
        control.target = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullObserver, TierConfig};
    use strata_asm::assemble;
    use strata_isa::Reg;

    fn machine_with(src: &str) -> Machine {
        let mut m = Machine::new(0x1_0000);
        let code = assemble(0x100, src).expect("assembles");
        m.write_code(0x100, &code).unwrap();
        m.cpu_mut().pc = 0x100;
        m
    }

    fn run(src: &str) -> Machine {
        let mut m = machine_with(src);
        let out = m.run(&mut NullObserver, 10_000).expect("runs");
        assert_eq!(out, StepOutcome::Halted);
        m
    }

    #[test]
    fn arithmetic_and_logic() {
        let m = run(r"
            li r1, 21
            li r2, 2
            mul r3, r1, r2
            addi r3, r3, -2
            xor r4, r3, r3
            ori r4, r4, 0xFF
            andi r4, r4, 0xF0
            srli r4, r4, 4
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 40);
        assert_eq!(m.cpu().reg(Reg::R4), 0xF);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let m = run(r"
            li r1, 17
            li r2, 0
            divu r3, r1, r2
            remu r4, r1, r2
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), u32::MAX);
        assert_eq!(m.cpu().reg(Reg::R4), 17);
    }

    #[test]
    fn loads_and_stores() {
        let m = run(r"
            li r1, 0x2000
            li r2, 0xCAFE
            sw r2, 4(r1)
            lw r3, 4(r1)
            sb r2, 0(r1)
            lbu r4, 0(r1)
            lb r5, 0(r1)
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 0xCAFE);
        assert_eq!(m.cpu().reg(Reg::R4), 0xFE);
        assert_eq!(m.cpu().reg(Reg::R5), 0xFFFF_FFFE); // sign-extended
    }

    #[test]
    fn stack_discipline() {
        let m = run(r"
            li r1, 111
            li r2, 222
            push r1
            push r2
            pop r3
            pop r4
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 222);
        assert_eq!(m.cpu().reg(Reg::R4), 111);
        assert_eq!(m.cpu().sp(), 0x1_0000);
    }

    #[test]
    fn flags_survive_pushf_popf() {
        let m = run(r"
            li r1, 1
            li r2, 2
            cmp r1, r2      ; lt, ltu set
            pushf
            cmpi r1, 1      ; eq set
            popf
            blt less
            li r3, 0
            halt
        less:
            li r3, 77
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R3), 77, "popf must restore the lt flag");
    }

    #[test]
    fn call_and_ret() {
        let m = run(r"
            li r1, 5
            call double
            call double
            halt
        double:
            add r1, r1, r1
            ret
        ");
        assert_eq!(m.cpu().reg(Reg::R1), 20);
        assert_eq!(m.cpu().sp(), 0x1_0000);
    }

    #[test]
    fn indirect_call_and_jump() {
        let m = run(r"
            li r9, target
            jr r9
            halt            ; skipped
        target:
            li r8, fn1
            callr r8
            halt
        fn1:
            li r7, 99
            ret
        ");
        assert_eq!(m.cpu().reg(Reg::R7), 99);
    }

    #[test]
    fn jmem_jumps_through_memory() {
        let m = run(r"
            li r1, dest
            swa r1, [0x200]
            jmem [0x200]
            halt            ; skipped
        dest:
            li r2, 5
            halt
        ");
        assert_eq!(m.cpu().reg(Reg::R2), 5);
    }

    #[test]
    fn trap_suspends_with_pc_after() {
        let mut m = machine_with("nop\ntrap 0x42\nli r1, 3\nhalt\n");
        let out = m.run(&mut NullObserver, 100).unwrap();
        assert_eq!(out, StepOutcome::Trap(0x42));
        // Resuming continues after the trap.
        let out = m.run(&mut NullObserver, 100).unwrap();
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(m.cpu().reg(Reg::R1), 3);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = machine_with("top:\n jmp top\n");
        assert_eq!(
            m.run(&mut NullObserver, 10),
            Err(MachineError::OutOfFuel { steps: 10 })
        );
    }

    #[test]
    fn observer_sees_control_flow() {
        #[derive(Default)]
        struct Watcher {
            indirect_taken: u32,
            cond_total: u32,
            stores: u32,
        }
        impl ExecutionObserver for Watcher {
            fn on_retire(&mut self, ev: &RetireEvent) {
                if ev.control.indirect && ev.control.taken {
                    self.indirect_taken += 1;
                }
                if ev.control.kind == ControlKind::Conditional {
                    self.cond_total += 1;
                }
                if ev.mem.is_some_and(|m| m.is_store) {
                    self.stores += 1;
                }
            }
        }
        let mut m = machine_with(
            r"
            li r1, 3
        top:
            addi r1, r1, -1
            cmpi r1, 0
            bne top
            li r9, out
            jr r9
        out:
            push r1
            halt
        ",
        );
        let mut w = Watcher::default();
        m.run(&mut w, 1000).unwrap();
        assert_eq!(w.indirect_taken, 1);
        assert_eq!(w.cond_total, 3);
        assert_eq!(w.stores, 1);
    }

    #[test]
    fn watched_store_stops_both_tiers_at_the_store() {
        // A hot loop of stores walks upward into the watched word; the
        // threaded tier (threshold 1) runs the loop from a superblock.
        // Both tiers must refuse the same store, leave it unexecuted with
        // `pc` on it, and agree on every retired event and register.
        let src = r"
            li r1, 0x2000
            li r2, 0
        top:
            sw r2, 0(r1)
            addi r1, r1, 4
            addi r2, r2, 1
            jmp top
        ";
        let outcomes: Vec<_> = [
            ExecTier::Interp,
            ExecTier::Threaded(TierConfig {
                threshold: 1,
                ..TierConfig::default()
            }),
        ]
        .into_iter()
        .map(|tier| {
            let mut m = machine_with(src);
            m.set_tier(tier);
            m.mem_mut().set_watch(0x2040..0x2044);
            let mut retired = crate::InstrCounter::default();
            let err = m.run(&mut retired, 10_000).unwrap_err();
            (
                err,
                m.cpu().clone(),
                retired.retired(),
                m.mem().read_u32(0x2040).unwrap(),
            )
        })
        .collect();
        let (err, cpu, count, word) = &outcomes[0];
        let store_pc = 0x100 + 4 * 4; // `li` is two words each
        assert_eq!(
            *err,
            MachineError::WatchedStore {
                pc: store_pc,
                addr: 0x2040
            }
        );
        assert_eq!(cpu.pc, store_pc, "pc stays on the refused store");
        assert_eq!(cpu.reg(Reg::R2), 16, "16 stores retired before it");
        assert_eq!(*word, 0, "the refused store wrote nothing");
        assert_eq!(*count, 4 + 16 * 4);
        assert_eq!(outcomes[0], outcomes[1], "interp and threaded agree");
    }

    #[test]
    fn pop_into_sp_loads_value() {
        let m = run(r"
            li r1, 0x4000
            push r1
            pop sp
            halt
        ");
        assert_eq!(m.cpu().sp(), 0x4000);
    }
}
