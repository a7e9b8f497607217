//! The threaded execution tier: direct-threaded superblock translation
//! for hot SimRISC regions.
//!
//! The interpreter pays, for every instruction, a predecode-page lookup,
//! a full operand extraction out of the [`Instr`] encoding, and the
//! construction of a fresh [`RetireEvent`]. This module removes all
//! three from hot code: once a region head has been *arrived at* (by a
//! taken control transfer) [`TierConfig::threshold`] times, the region
//! is translated into a **superblock** of pre-lowered host ops —
//! operands resolved to direct register indices, immediates pre-extended,
//! branch targets pre-computed, and one retire-event template per guest
//! instruction that execution patches and emits instead of rebuilding.
//! Dispatch inside a block is a single match on a dense op enum (the
//! direct-threaded analogue: no fetch, no decode, no page walk), and
//! every exit — taken conditional, indirect transfer, trap, fuel, fault
//! — is a *side exit* that restores the interpreter's exact view of the
//! machine (`cpu.pc` at the next unexecuted instruction).
//!
//! ## Observational equivalence
//!
//! Correctness here is defined as **bit-identical observability**: a
//! translated block must hand the observer the very same
//! [`RetireEvent`] stream the interpreter would, in the same order, at
//! the same fuel boundaries, with the same faults. Charged guest cycles
//! are *not* computed here — the architecture cost models stay
//! observational consumers of the retire stream — so enabling the tier
//! cannot move a single costed cycle. The difftest harness
//! (`strata-testgen`) locks this down over randomized programs.
//!
//! ## Superblock formation
//!
//! Translation walks forward from the hot head through the *predecoded*
//! words only (a hot path has necessarily been decoded already):
//!
//! * straight-line ops extend the block;
//! * conditional branches stay in the block — the not-taken (fall
//!   through) path continues, the taken path becomes a side exit;
//! * unconditional transfers (`jmp`/`call`/`jr`/`callr`/`ret`/`jmem`),
//!   `trap`, and `halt` terminate the block;
//! * an undecoded word or the [`TierConfig::max_block`] cap ends the
//!   block with a fall-through stub that retires nothing.
//!
//! ## Invalidation protocol (self-modifying code)
//!
//! [`Memory`] bumps a [`code_version`](Memory::code_version) generation
//! counter whenever a store clears predecoded words. The engine
//! captures the generation when it (re)builds blocks and compares it on
//! every block-head arrival: a mismatch flushes every translated block
//! and all profile counters before anything stale can run. Stores
//! *inside* a translated block are checked right after they retire —
//! the block side-exits to the next instruction, so a program patching
//! the very block it is executing observes its own writes exactly as it
//! would under the interpreter.

use strata_isa::{Flags, Instr, Reg};

use crate::event::{ControlEvent, ExecutionObserver, MemAccess, RetireEvent};
use crate::machine::MachineError;
use crate::memory::{Memory, PAGE_SHIFT, PAGE_WORDS};
use crate::Cpu;

/// Knobs for the threaded tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Arrivals at a region head before it is translated. Clamped to at
    /// least 1 (a threshold of 1 translates on first arrival).
    pub threshold: u32,
    /// Maximum guest instructions per superblock.
    pub max_block: usize,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            threshold: 64,
            max_block: 64,
        }
    }
}

/// Which execution tier drives [`Machine::run`](crate::Machine::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Pure interpretation (the default; zero overhead, zero state).
    Interp,
    /// Hot-region translation to direct-threaded superblocks.
    Threaded(TierConfig),
}

impl ExecTier {
    /// Parses a tier spec: `interp`, `threaded`, or `threaded:<threshold>`.
    ///
    /// ```
    /// use strata_machine::{ExecTier, TierConfig};
    /// assert_eq!(ExecTier::parse("interp").unwrap(), ExecTier::Interp);
    /// assert_eq!(
    ///     ExecTier::parse("threaded").unwrap(),
    ///     ExecTier::Threaded(TierConfig::default())
    /// );
    /// match ExecTier::parse("threaded:8").unwrap() {
    ///     ExecTier::Threaded(cfg) => assert_eq!(cfg.threshold, 8),
    ///     other => panic!("{other:?}"),
    /// }
    /// assert!(ExecTier::parse("jit").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<ExecTier, String> {
        match s {
            "interp" => Ok(ExecTier::Interp),
            "threaded" => Ok(ExecTier::Threaded(TierConfig::default())),
            other => match other.strip_prefix("threaded:") {
                Some(n) => {
                    let threshold: u32 = n.parse().map_err(|_| {
                        format!("bad tier threshold `{n}` (expected a number, e.g. threaded:32)")
                    })?;
                    Ok(ExecTier::Threaded(TierConfig {
                        threshold: threshold.max(1),
                        ..TierConfig::default()
                    }))
                }
                None => Err(format!(
                    "unknown execution tier `{other}` (interp|threaded[:threshold])"
                )),
            },
        }
    }
}

/// Counters the tier exposes for tests, experiments, and `strata run`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Superblocks translated over the machine's lifetime (flushed
    /// blocks still count).
    pub blocks_translated: u64,
    /// Times execution entered a translated block.
    pub block_entries: u64,
    /// Guest instructions retired from inside translated blocks.
    pub translated_retired: u64,
    /// Whole-cache invalidations triggered by code-version mismatches.
    pub flushes: u64,
}

/// Condition of a lowered conditional branch.
///
/// Public so the translation validator (`strata-analysis`) can check a
/// lowered branch's predicate against the guest instruction it claims to
/// lower; execution itself never leaves this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `beq`: flags.eq
    Eq,
    /// `bne`: !flags.eq
    Ne,
    /// `blt`: flags.lt
    Lt,
    /// `bge`: !flags.lt
    Ge,
    /// `bltu`: flags.ltu
    Ltu,
    /// `bgeu`: !flags.ltu
    Geu,
}

impl Cond {
    #[inline(always)]
    fn eval(self, f: Flags) -> bool {
        match self {
            Cond::Eq => f.eq,
            Cond::Ne => !f.eq,
            Cond::Lt => f.lt,
            Cond::Ge => !f.lt,
            Cond::Ltu => f.ltu,
            Cond::Geu => !f.ltu,
        }
    }
}

/// A pre-lowered guest instruction. Register operands are direct
/// [`Reg`] values, immediates are pre-extended to their runtime width,
/// and static targets (branch destinations, call return addresses) are
/// pre-computed, so executing an op touches no encoding logic at all.
///
/// Public (read-only, via [`TierSlotMeta`]) so the translation validator
/// can re-derive each op's semantics and prove it equivalent to the
/// guest instruction it lowers; nothing outside this crate can construct
/// a block from ops.
#[allow(missing_docs)] // operand fields mirror `Instr`'s, post-extension
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Add {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sub {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mul {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Divu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Remu {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    And {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Or {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Xor {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sll {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Srl {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Sra {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Mov {
        rd: Reg,
        rs: Reg,
    },
    Addi {
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    Andi {
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    Ori {
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    Xori {
        rd: Reg,
        rs1: Reg,
        imm: u32,
    },
    Slli {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    Srli {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    Srai {
        rd: Reg,
        rs1: Reg,
        shamt: u32,
    },
    Lui {
        rd: Reg,
        value: u32,
    },
    Lw {
        rd: Reg,
        rs1: Reg,
        off: u32,
    },
    Sw {
        rs2: Reg,
        rs1: Reg,
        off: u32,
    },
    Lb {
        rd: Reg,
        rs1: Reg,
        off: u32,
    },
    Lbu {
        rd: Reg,
        rs1: Reg,
        off: u32,
    },
    Sb {
        rs2: Reg,
        rs1: Reg,
        off: u32,
    },
    Lwa {
        rd: Reg,
        addr: u32,
    },
    Swa {
        rs: Reg,
        addr: u32,
    },
    Push {
        rs: Reg,
    },
    Pop {
        rd: Reg,
    },
    Pushf,
    Popf,
    Cmp {
        rs1: Reg,
        rs2: Reg,
    },
    Cmpi {
        rs1: Reg,
        rhs: u32,
    },
    /// Conditional branch: taken is a side exit, not-taken falls through
    /// to the next op.
    CondBr {
        cond: Cond,
        target: u32,
    },
    /// Macro-op fusion: `cmp` immediately followed by a conditional
    /// branch executes as one dispatch. The original `CondBr` stays in
    /// the next slot (in-block branch targets can land on it) and lends
    /// the fused op its retire template at runtime.
    CmpBr {
        rs1: Reg,
        rs2: Reg,
        cond: Cond,
        target: u32,
    },
    /// `cmpi` fused with the following conditional branch.
    CmpiBr {
        rs1: Reg,
        rhs: u32,
        cond: Cond,
        target: u32,
    },
    Jmp {
        target: u32,
    },
    CallD {
        target: u32,
        ret: u32,
    },
    Jr {
        rs: Reg,
    },
    Callr {
        rs: Reg,
        ret: u32,
    },
    Ret,
    Jmem {
        addr: u32,
    },
    Trap {
        code: u16,
    },
    Halt,
    Nop,
    /// Block-end stub (length cap or undecoded word): transfers to
    /// `next` without retiring anything.
    FallThrough {
        next: u32,
    },
}

/// One translated op plus its retire-event template. Dynamic fields
/// (data address, indirect target, taken-branch outcome) are patched
/// into a stack copy of the template at execution time; everything else
/// is emitted verbatim, byte-identical to what the interpreter builds.
#[derive(Debug, Clone, Copy)]
struct TOp {
    op: Op,
    ev: RetireEvent,
}

/// A translated superblock: `ops[i]` lowers the instruction at
/// `base + 4 * i` (the trailing `FallThrough`, if any, sits at the
/// first untranslated pc).
#[derive(Debug, Clone)]
struct Block {
    base: u32,
    ops: Box<[TOp]>,
}

/// One translated slot as exported for external validation: the guest
/// pc it claims to lower, the lowered op, and the stored retire-event
/// template (whose `instr` field is the guest instruction the translator
/// believed it was lowering).
#[derive(Debug, Clone, Copy)]
pub struct TierSlotMeta {
    /// Guest address of this slot (`block.base + 4 * slot_index`).
    pub pc: u32,
    /// The lowered op executed for this slot.
    pub op: Op,
    /// The retire-event template emitted (with dynamic fields patched)
    /// when this slot retires.
    pub ev: RetireEvent,
}

/// Structural metadata for one translated superblock — the threaded
/// tier's analogue of `Sdt::cache_meta()`: everything an external
/// validator needs to re-derive and check the translation, exported by
/// [`Machine::tier_blocks`](crate::Machine::tier_blocks).
#[derive(Debug, Clone)]
pub struct TierBlockMeta {
    /// Guest address of the block head.
    pub base: u32,
    /// Slots in execution order; `slots[i]` lowers `base + 4 * i`.
    pub slots: Vec<TierSlotMeta>,
}

/// A class of translator defect the mutation harness can inject into a
/// live translated block (leaving the stored guest instruction intact,
/// exactly like a lowering bug would). Used by both the differential
/// tester and the translation validator's sensitivity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierMutation {
    /// An immediate was mis-extended/mis-copied: bump the first lowered
    /// immediate operand by 1.
    WrongImmediate,
    /// Operand order lost in lowering: swap `rs1`/`rs2` of the first
    /// non-commutative ALU op (`sub`/`divu`/`remu`).
    SwappedOperands,
    /// A precomputed branch target is off by one word: bump the first
    /// conditional side-exit target by 4 (fused shadow kept consistent,
    /// like a systematic translator bug would).
    BranchTargetSkew,
    /// The block's resume point is off by one instruction: bump the
    /// trailing `FallThrough` stub's target by 4, so a block-cap or
    /// fuel-boundary exit resumes at the wrong pc.
    FuelBoundarySkew,
}

impl TierMutation {
    /// Every defect class, for exhaustive sensitivity sweeps.
    pub const ALL: [TierMutation; 4] = [
        TierMutation::WrongImmediate,
        TierMutation::SwappedOperands,
        TierMutation::BranchTargetSkew,
        TierMutation::FuelBoundarySkew,
    ];

    /// Kebab-case label for reports and test output.
    pub fn name(self) -> &'static str {
        match self {
            TierMutation::WrongImmediate => "wrong-immediate",
            TierMutation::SwappedOperands => "swapped-operands",
            TierMutation::BranchTargetSkew => "branch-target-skew",
            TierMutation::FuelBoundarySkew => "fuel-boundary-skew",
        }
    }
}

/// How a block execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExitKind {
    /// Control left the block (side exit, fall through, or fuel
    /// exhausted); `cpu.pc` holds the next unexecuted instruction.
    Continue,
    /// A `trap` retired; `cpu.pc` is past it.
    Trap(u16),
    /// A `halt` retired; `cpu.pc` is past it.
    Halted,
    /// An op faulted; `cpu.pc` holds the faulting instruction and no
    /// partial effects are observable (mirrors the interpreter).
    Fault(MachineError),
}

/// Result of executing (part of) a translated block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockExit {
    pub(crate) kind: ExitKind,
    /// Guest instructions retired (always `<=` the fuel passed in).
    pub(crate) retired: u64,
}

/// A lazily-allocated paged `pc -> u32` map mirroring the memory
/// crate's 4 KiB predecode pages: one load to find the page, one to
/// index it — no hashing anywhere near the dispatch path.
#[derive(Debug)]
struct PagedU32 {
    pages: Vec<Option<Box<[u32; PAGE_WORDS]>>>,
}

impl PagedU32 {
    fn new(page_count: usize) -> PagedU32 {
        PagedU32 {
            pages: (0..page_count).map(|_| None).collect(),
        }
    }

    /// The value at (aligned) `pc`, 0 when unset or out of range.
    #[inline(always)]
    fn get(&self, pc: u32) -> u32 {
        match self.pages.get((pc >> PAGE_SHIFT) as usize) {
            Some(Some(page)) => page[(pc as usize >> 2) & (PAGE_WORDS - 1)],
            _ => 0,
        }
    }

    /// Mutable slot for `pc`, allocating its page; `None` past the end
    /// of memory.
    #[inline]
    fn slot_mut(&mut self, pc: u32) -> Option<&mut u32> {
        let page = self.pages.get_mut((pc >> PAGE_SHIFT) as usize)?;
        let page = page.get_or_insert_with(|| Box::new([0; PAGE_WORDS]));
        Some(&mut page[(pc as usize >> 2) & (PAGE_WORDS - 1)])
    }

    fn clear(&mut self) {
        for page in &mut self.pages {
            *page = None;
        }
    }
}

/// Per-pc profile counter value marking a head as untranslatable; the
/// saturating bump keeps it pinned so translation is not retried on
/// every arrival.
const UNTRANSLATABLE: u32 = u32::MAX;

/// The threaded tier's state: translated blocks, the block map, and the
/// arrival profiler. Owned by [`Machine`](crate::Machine) when the
/// threaded tier is selected.
#[derive(Debug)]
pub(crate) struct TierEngine {
    cfg: TierConfig,
    /// `Memory::code_version` as of the last (re)build; a mismatch at a
    /// block-head arrival flushes everything.
    version: u64,
    blocks: Vec<Block>,
    /// pc -> block index + 1 (0 = no block starts here).
    map: PagedU32,
    /// pc -> arrivals observed while untranslated.
    counters: PagedU32,
    stats: TierStats,
}

impl TierEngine {
    pub(crate) fn new(cfg: TierConfig, mem: &Memory) -> TierEngine {
        let cfg = TierConfig {
            threshold: cfg.threshold.max(1),
            max_block: cfg.max_block.max(1),
        };
        let pages = (mem.size() as usize).div_ceil(1 << PAGE_SHIFT);
        TierEngine {
            cfg,
            version: mem.code_version(),
            blocks: Vec::new(),
            map: PagedU32::new(pages),
            counters: PagedU32::new(pages),
            stats: TierStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> TierStats {
        self.stats
    }

    /// Drops every translated block and profile counter if the memory's
    /// code generation moved (a store invalidated decoded code).
    #[inline(always)]
    pub(crate) fn sync_version(&mut self, version: u64) {
        if version != self.version {
            self.flush(version);
        }
    }

    #[cold]
    fn flush(&mut self, version: u64) {
        self.blocks.clear();
        self.map.clear();
        self.counters.clear();
        self.version = version;
        self.stats.flushes += 1;
    }

    /// The translated block starting exactly at `pc`, if any.
    #[inline(always)]
    pub(crate) fn lookup(&self, pc: u32) -> Option<u32> {
        if pc & 3 != 0 {
            return None;
        }
        match self.map.get(pc) {
            0 => None,
            idx => Some(idx - 1),
        }
    }

    /// Records an arrival at untranslated `pc`; translates the region
    /// once the threshold is reached. Returns `true` when `pc` now has
    /// a block (the caller re-dispatches through [`Self::lookup`]).
    pub(crate) fn profile(&mut self, pc: u32, mem: &Memory) -> bool {
        if pc & 3 != 0 {
            return false;
        }
        let threshold = self.cfg.threshold;
        let Some(counter) = self.counters.slot_mut(pc) else {
            return false;
        };
        *counter = counter.saturating_add(1);
        if *counter != threshold {
            return false;
        }
        match translate(mem, pc, self.cfg.max_block) {
            Some(block) => {
                self.blocks.push(block);
                let idx = self.blocks.len() as u32;
                *self
                    .map
                    .slot_mut(pc)
                    .expect("counter slot implies map slot") = idx;
                self.stats.blocks_translated += 1;
                true
            }
            None => {
                *self.counters.slot_mut(pc).expect("slot exists") = UNTRANSLATABLE;
                false
            }
        }
    }

    /// Executes block `idx` until a side exit, fault, or `max` retired
    /// instructions.
    #[inline]
    pub(crate) fn exec_block<O: ExecutionObserver>(
        &mut self,
        idx: u32,
        cpu: &mut Cpu,
        mem: &mut Memory,
        max: u64,
        observer: &mut O,
    ) -> BlockExit {
        let exit = run_ops(
            &self.blocks[idx as usize],
            self.version,
            cpu,
            mem,
            max,
            observer,
        );
        self.stats.block_entries += 1;
        self.stats.translated_retired += exit.retired;
        exit
    }

    /// Exports structural metadata for every live translated block.
    ///
    /// Returns an empty vec when `current_version` does not match the
    /// generation the blocks were built against: stale blocks are
    /// guaranteed to be flushed before they can execute again, so
    /// validating them against the (already different) code bytes would
    /// only manufacture false mismatches.
    pub(crate) fn export_blocks(&self, current_version: u64) -> Vec<TierBlockMeta> {
        if current_version != self.version {
            return Vec::new();
        }
        self.blocks
            .iter()
            .map(|b| TierBlockMeta {
                base: b.base,
                slots: b
                    .ops
                    .iter()
                    .enumerate()
                    .map(|(i, t)| TierSlotMeta {
                        pc: b.base.wrapping_add(i as u32 * 4),
                        op: t.op,
                        ev: t.ev,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Mutation-testing hook: injects one defect of class `m` into the
    /// first translated op it applies to, leaving the stored guest
    /// instruction (and so the validator's reference) intact. Returns
    /// `false` when no translated op is eligible.
    #[doc(hidden)]
    pub(crate) fn corrupt_lowered(&mut self, m: TierMutation) -> bool {
        match m {
            TierMutation::BranchTargetSkew => self.corrupt_side_exit(),
            TierMutation::WrongImmediate => {
                for block in &mut self.blocks {
                    for t in block.ops.iter_mut() {
                        match &mut t.op {
                            Op::Addi { imm, .. }
                            | Op::Andi { imm, .. }
                            | Op::Ori { imm, .. }
                            | Op::Xori { imm, .. } => {
                                *imm = imm.wrapping_add(1);
                                return true;
                            }
                            Op::Cmpi { rhs, .. } | Op::CmpiBr { rhs, .. } => {
                                *rhs = rhs.wrapping_add(1);
                                return true;
                            }
                            Op::Lui { value, .. } => {
                                *value = value.wrapping_add(1);
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
                false
            }
            TierMutation::SwappedOperands => {
                for block in &mut self.blocks {
                    for t in block.ops.iter_mut() {
                        match &mut t.op {
                            Op::Sub { rs1, rs2, .. }
                            | Op::Divu { rs1, rs2, .. }
                            | Op::Remu { rs1, rs2, .. }
                                if rs1 != rs2 =>
                            {
                                std::mem::swap(rs1, rs2);
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
                false
            }
            TierMutation::FuelBoundarySkew => {
                for block in &mut self.blocks {
                    for t in block.ops.iter_mut() {
                        if let Op::FallThrough { next } = &mut t.op {
                            *next = next.wrapping_add(4);
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Test hook (mutation testing): nudges the first translated
    /// conditional side-exit target by 4 bytes, simulating a translator
    /// bug the differential harness must catch. Returns `false` when no
    /// block with a conditional branch exists yet.
    #[doc(hidden)]
    pub(crate) fn corrupt_side_exit(&mut self) -> bool {
        for block in &mut self.blocks {
            for i in 0..block.ops.len() {
                let fused = matches!(block.ops[i].op, Op::CmpBr { .. } | Op::CmpiBr { .. });
                match &mut block.ops[i].op {
                    Op::CondBr { target, .. }
                    | Op::CmpBr { target, .. }
                    | Op::CmpiBr { target, .. } => *target = target.wrapping_add(4),
                    _ => continue,
                }
                if fused {
                    // Keep the fused op and its shadow branch consistent.
                    if let Op::CondBr { target, .. } = &mut block.ops[i + 1].op {
                        *target = target.wrapping_add(4);
                    }
                }
                return true;
            }
        }
        false
    }
}

/// Builds the retire-event template the interpreter would emit for
/// `instr` at `pc`, with dynamic fields left at their fall-through /
/// zero defaults (patched at execution time).
fn template(pc: u32, instr: Instr) -> RetireEvent {
    let next = pc.wrapping_add(4);
    let mut control = ControlEvent {
        kind: instr.control_kind(),
        taken: false,
        target: next,
        indirect: false,
    };
    let mut mem = None;
    use Instr::*;
    match instr {
        Lw { .. } | Lb { .. } | Lbu { .. } => {
            mem = Some(MemAccess {
                addr: 0,
                len: if matches!(instr, Lw { .. }) { 4 } else { 1 },
                is_store: false,
            });
        }
        Sw { .. } | Sb { .. } => {
            mem = Some(MemAccess {
                addr: 0,
                len: if matches!(instr, Sw { .. }) { 4 } else { 1 },
                is_store: true,
            });
        }
        Lwa { addr, .. } | Jmem { addr } => {
            mem = Some(MemAccess {
                addr,
                len: 4,
                is_store: false,
            });
        }
        Swa { addr, .. } => {
            mem = Some(MemAccess {
                addr,
                len: 4,
                is_store: true,
            });
        }
        Push { .. } | Pushf | Call { .. } | Callr { .. } => {
            mem = Some(MemAccess {
                addr: 0,
                len: 4,
                is_store: true,
            });
        }
        Pop { .. } | Popf | Ret => {
            mem = Some(MemAccess {
                addr: 0,
                len: 4,
                is_store: false,
            });
        }
        _ => {}
    }
    match instr {
        Jmp { target } | Call { target } => {
            control.taken = true;
            control.target = target;
        }
        Jr { .. } | Callr { .. } | Ret | Jmem { .. } => {
            control.taken = true;
            control.indirect = true;
            // target patched at execution time
        }
        _ => {}
    }
    debug_assert_eq!(control.kind, instr.control_kind());
    RetireEvent {
        pc,
        instr,
        class: instr.class(),
        mem,
        control,
    }
}

/// Lowers one decoded instruction; returns the op and whether it
/// terminates the superblock.
fn lower(pc: u32, instr: Instr) -> (TOp, bool) {
    use Instr as I;
    let next = pc.wrapping_add(4);
    let (op, ends) = match instr {
        I::Add { rd, rs1, rs2 } => (Op::Add { rd, rs1, rs2 }, false),
        I::Sub { rd, rs1, rs2 } => (Op::Sub { rd, rs1, rs2 }, false),
        I::Mul { rd, rs1, rs2 } => (Op::Mul { rd, rs1, rs2 }, false),
        I::Divu { rd, rs1, rs2 } => (Op::Divu { rd, rs1, rs2 }, false),
        I::Remu { rd, rs1, rs2 } => (Op::Remu { rd, rs1, rs2 }, false),
        I::And { rd, rs1, rs2 } => (Op::And { rd, rs1, rs2 }, false),
        I::Or { rd, rs1, rs2 } => (Op::Or { rd, rs1, rs2 }, false),
        I::Xor { rd, rs1, rs2 } => (Op::Xor { rd, rs1, rs2 }, false),
        I::Sll { rd, rs1, rs2 } => (Op::Sll { rd, rs1, rs2 }, false),
        I::Srl { rd, rs1, rs2 } => (Op::Srl { rd, rs1, rs2 }, false),
        I::Sra { rd, rs1, rs2 } => (Op::Sra { rd, rs1, rs2 }, false),
        I::Mov { rd, rs } => (Op::Mov { rd, rs }, false),
        I::Addi { rd, rs1, imm } => (
            Op::Addi {
                rd,
                rs1,
                imm: imm as i32 as u32,
            },
            false,
        ),
        I::Andi { rd, rs1, imm } => (
            Op::Andi {
                rd,
                rs1,
                imm: imm as u32,
            },
            false,
        ),
        I::Ori { rd, rs1, imm } => (
            Op::Ori {
                rd,
                rs1,
                imm: imm as u32,
            },
            false,
        ),
        I::Xori { rd, rs1, imm } => (
            Op::Xori {
                rd,
                rs1,
                imm: imm as u32,
            },
            false,
        ),
        I::Slli { rd, rs1, shamt } => (
            Op::Slli {
                rd,
                rs1,
                shamt: shamt as u32,
            },
            false,
        ),
        I::Srli { rd, rs1, shamt } => (
            Op::Srli {
                rd,
                rs1,
                shamt: shamt as u32,
            },
            false,
        ),
        I::Srai { rd, rs1, shamt } => (
            Op::Srai {
                rd,
                rs1,
                shamt: shamt as u32,
            },
            false,
        ),
        I::Lui { rd, imm } => (
            Op::Lui {
                rd,
                value: (imm as u32) << 16,
            },
            false,
        ),
        I::Lw { rd, rs1, off } => (
            Op::Lw {
                rd,
                rs1,
                off: off as i32 as u32,
            },
            false,
        ),
        I::Sw { rs2, rs1, off } => (
            Op::Sw {
                rs2,
                rs1,
                off: off as i32 as u32,
            },
            false,
        ),
        I::Lb { rd, rs1, off } => (
            Op::Lb {
                rd,
                rs1,
                off: off as i32 as u32,
            },
            false,
        ),
        I::Lbu { rd, rs1, off } => (
            Op::Lbu {
                rd,
                rs1,
                off: off as i32 as u32,
            },
            false,
        ),
        I::Sb { rs2, rs1, off } => (
            Op::Sb {
                rs2,
                rs1,
                off: off as i32 as u32,
            },
            false,
        ),
        I::Lwa { rd, addr } => (Op::Lwa { rd, addr }, false),
        I::Swa { rs, addr } => (Op::Swa { rs, addr }, false),
        I::Push { rs } => (Op::Push { rs }, false),
        I::Pop { rd } => (Op::Pop { rd }, false),
        I::Pushf => (Op::Pushf, false),
        I::Popf => (Op::Popf, false),
        I::Cmp { rs1, rs2 } => (Op::Cmp { rs1, rs2 }, false),
        I::Cmpi { rs1, imm } => (
            Op::Cmpi {
                rs1,
                rhs: imm as i32 as u32,
            },
            false,
        ),
        I::Beq { off } => (cond_br(Cond::Eq, pc, off), false),
        I::Bne { off } => (cond_br(Cond::Ne, pc, off), false),
        I::Blt { off } => (cond_br(Cond::Lt, pc, off), false),
        I::Bge { off } => (cond_br(Cond::Ge, pc, off), false),
        I::Bltu { off } => (cond_br(Cond::Ltu, pc, off), false),
        I::Bgeu { off } => (cond_br(Cond::Geu, pc, off), false),
        I::Jmp { target } => (Op::Jmp { target }, true),
        I::Call { target } => (Op::CallD { target, ret: next }, true),
        I::Jr { rs } => (Op::Jr { rs }, true),
        I::Callr { rs } => (Op::Callr { rs, ret: next }, true),
        I::Ret => (Op::Ret, true),
        I::Jmem { addr } => (Op::Jmem { addr }, true),
        I::Trap { code } => (Op::Trap { code }, true),
        I::Halt => (Op::Halt, true),
        I::Nop => (Op::Nop, false),
    };
    (
        TOp {
            op,
            ev: template(pc, instr),
        },
        ends,
    )
}

fn cond_br(cond: Cond, pc: u32, off: i16) -> Op {
    // Taken target exactly as the interpreter computes it.
    let target = pc
        .wrapping_add(4)
        .wrapping_add((off as i32 as u32).wrapping_mul(4));
    Op::CondBr { cond, target }
}

/// Translates the superblock headed at `base` from the predecoded
/// instruction stream. Returns `None` when not even the head word is
/// decoded (misaligned, out of range, undecodable, or simply cold) —
/// the caller pins the head as untranslatable.
fn translate(mem: &Memory, base: u32, max_block: usize) -> Option<Block> {
    if base & 3 != 0 {
        return None;
    }
    let mut ops: Vec<TOp> = Vec::new();
    let mut pc = base;
    loop {
        if ops.len() >= max_block {
            ops.push(fall_through(pc));
            break;
        }
        let Some(instr) = mem.fetch_predecoded(pc) else {
            if ops.is_empty() {
                return None;
            }
            ops.push(fall_through(pc));
            break;
        };
        let (top, ends) = lower(pc, instr);
        ops.push(top);
        if ends {
            break;
        }
        pc = pc.wrapping_add(4);
    }
    fuse(&mut ops);
    Some(Block {
        base,
        ops: ops.into_boxed_slice(),
    })
}

/// Peephole pass: a compare directly feeding a conditional branch is
/// rewritten into a single fused op, halving the dispatch cost of the
/// canonical `cmp*; b<cond>` loop latch. The branch op itself is left
/// untouched — it still lowers the instruction at its own pc, so a
/// branch target (or a fuel boundary) landing between the pair resumes
/// correctly.
fn fuse(ops: &mut [TOp]) {
    for i in 0..ops.len().saturating_sub(1) {
        let Op::CondBr { cond, target } = ops[i + 1].op else {
            continue;
        };
        match ops[i].op {
            Op::Cmp { rs1, rs2 } => {
                ops[i].op = Op::CmpBr {
                    rs1,
                    rs2,
                    cond,
                    target,
                }
            }
            Op::Cmpi { rs1, rhs } => {
                ops[i].op = Op::CmpiBr {
                    rs1,
                    rhs,
                    cond,
                    target,
                }
            }
            _ => {}
        }
    }
}

fn fall_through(next: u32) -> TOp {
    TOp {
        op: Op::FallThrough { next },
        // Never emitted: the stub retires nothing.
        ev: template(next, Instr::Nop),
    }
}

/// The direct-threaded dispatch loop over one block's ops.
///
/// Guest state transitions mirror [`Machine::exec`] exactly —
/// instruction by instruction, including operation order within an
/// instruction (stores attempted before register updates) — but `pc` is
/// materialized only at exits, which is where the speed comes from.
fn run_ops<O: ExecutionObserver>(
    block: &Block,
    entry_version: u64,
    cpu: &mut Cpu,
    mem: &mut Memory,
    max: u64,
    observer: &mut O,
) -> BlockExit {
    let base = block.base;
    let mut retired: u64 = 0;
    let mut idx: usize = 0;
    loop {
        let t = &block.ops[idx];

        /// The guest pc of the current op — materialized only on the
        /// exit paths that need it, never in the hot dispatch.
        macro_rules! pc {
            () => {
                base.wrapping_add(idx as u32 * 4)
            };
        }

        // Fuel boundary: stop *before* the op that would exceed the
        // budget, exactly where the interpreter would stop. (Stopping
        // at a `FallThrough` stub is fine: it retires nothing and its
        // `next` equals this very pc, so the observable state is the
        // same either way.)
        if retired == max {
            cpu.pc = pc!();
            return BlockExit {
                kind: ExitKind::Continue,
                retired,
            };
        }

        /// Fault exit: pc at the faulting instruction, nothing retired
        /// for it, no partial effects.
        macro_rules! try_op {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => {
                        cpu.pc = pc!();
                        return BlockExit {
                            kind: ExitKind::Fault(err),
                            retired,
                        };
                    }
                }
            };
        }
        /// Retire the unpatched template and advance to the next op.
        macro_rules! retire {
            () => {{
                observer.on_retire(&t.ev);
                retired += 1;
                idx += 1;
            }};
        }
        /// Retire a store op (template patched with the data address),
        /// then side-exit if the store invalidated decoded code — the
        /// remaining ops of this block may be stale.
        macro_rules! retire_store {
            ($addr:expr) => {{
                let mut ev = t.ev;
                ev.mem = Some(MemAccess {
                    addr: $addr,
                    len: ev.mem.expect("store template has access").len,
                    is_store: true,
                });
                observer.on_retire(&ev);
                retired += 1;
                if mem.code_version() != entry_version {
                    cpu.pc = pc!().wrapping_add(4);
                    return BlockExit {
                        kind: ExitKind::Continue,
                        retired,
                    };
                }
                idx += 1;
            }};
        }
        /// Tail of a fused compare+branch: retire the compare's event
        /// (already done by the caller), honor a fuel boundary that
        /// falls between the pair, then retire the branch using the
        /// shadow `CondBr`'s template from the next slot.
        macro_rules! fused_branch {
            ($cond:expr, $target:expr) => {{
                observer.on_retire(&t.ev);
                retired += 1;
                if retired == max {
                    // Fuel ran out between compare and branch: resume
                    // at the branch, exactly like the interpreter.
                    cpu.pc = pc!().wrapping_add(4);
                    return BlockExit {
                        kind: ExitKind::Continue,
                        retired,
                    };
                }
                let br = &block.ops[idx + 1];
                if $cond.eval(cpu.flags) {
                    let mut ev = br.ev;
                    ev.control.taken = true;
                    ev.control.target = $target;
                    observer.on_retire(&ev);
                    retired += 1;
                    let off = $target.wrapping_sub(base);
                    let widx = (off >> 2) as usize;
                    if off & 3 == 0 && widx < block.ops.len() {
                        idx = widx;
                        continue;
                    }
                    cpu.pc = $target;
                    return BlockExit {
                        kind: ExitKind::Continue,
                        retired,
                    };
                }
                observer.on_retire(&br.ev);
                retired += 1;
                idx += 2;
            }};
        }

        /// Retire a load op with a patched data address.
        macro_rules! retire_load {
            ($addr:expr) => {{
                let mut ev = t.ev;
                ev.mem = Some(MemAccess {
                    addr: $addr,
                    len: ev.mem.expect("load template has access").len,
                    is_store: false,
                });
                observer.on_retire(&ev);
                retired += 1;
                idx += 1;
            }};
        }

        match t.op {
            Op::Add { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1).wrapping_add(cpu.reg(rs2)));
                retire!();
            }
            Op::Sub { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1).wrapping_sub(cpu.reg(rs2)));
                retire!();
            }
            Op::Mul { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1).wrapping_mul(cpu.reg(rs2)));
                retire!();
            }
            Op::Divu { rd, rs1, rs2 } => {
                let v = cpu.reg(rs1).checked_div(cpu.reg(rs2)).unwrap_or(u32::MAX);
                cpu.set_reg(rd, v);
                retire!();
            }
            Op::Remu { rd, rs1, rs2 } => {
                let d = cpu.reg(rs2);
                let v = if d == 0 {
                    cpu.reg(rs1)
                } else {
                    cpu.reg(rs1) % d
                };
                cpu.set_reg(rd, v);
                retire!();
            }
            Op::And { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1) & cpu.reg(rs2));
                retire!();
            }
            Op::Or { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1) | cpu.reg(rs2));
                retire!();
            }
            Op::Xor { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1) ^ cpu.reg(rs2));
                retire!();
            }
            Op::Sll { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1) << (cpu.reg(rs2) & 31));
                retire!();
            }
            Op::Srl { rd, rs1, rs2 } => {
                cpu.set_reg(rd, cpu.reg(rs1) >> (cpu.reg(rs2) & 31));
                retire!();
            }
            Op::Sra { rd, rs1, rs2 } => {
                cpu.set_reg(rd, ((cpu.reg(rs1) as i32) >> (cpu.reg(rs2) & 31)) as u32);
                retire!();
            }
            Op::Mov { rd, rs } => {
                cpu.set_reg(rd, cpu.reg(rs));
                retire!();
            }
            Op::Addi { rd, rs1, imm } => {
                cpu.set_reg(rd, cpu.reg(rs1).wrapping_add(imm));
                retire!();
            }
            Op::Andi { rd, rs1, imm } => {
                cpu.set_reg(rd, cpu.reg(rs1) & imm);
                retire!();
            }
            Op::Ori { rd, rs1, imm } => {
                cpu.set_reg(rd, cpu.reg(rs1) | imm);
                retire!();
            }
            Op::Xori { rd, rs1, imm } => {
                cpu.set_reg(rd, cpu.reg(rs1) ^ imm);
                retire!();
            }
            Op::Slli { rd, rs1, shamt } => {
                cpu.set_reg(rd, cpu.reg(rs1) << shamt);
                retire!();
            }
            Op::Srli { rd, rs1, shamt } => {
                cpu.set_reg(rd, cpu.reg(rs1) >> shamt);
                retire!();
            }
            Op::Srai { rd, rs1, shamt } => {
                cpu.set_reg(rd, ((cpu.reg(rs1) as i32) >> shamt) as u32);
                retire!();
            }
            Op::Lui { rd, value } => {
                cpu.set_reg(rd, value);
                retire!();
            }
            Op::Lw { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off);
                let v = try_op!(mem.read_u32(a));
                cpu.set_reg(rd, v);
                retire_load!(a);
            }
            Op::Sw { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off);
                try_op!(mem.guest_write_u32(pc!(), a, cpu.reg(rs2)));
                retire_store!(a);
            }
            Op::Lb { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off);
                let v = try_op!(mem.read_u8(a)) as i8 as i32 as u32;
                cpu.set_reg(rd, v);
                retire_load!(a);
            }
            Op::Lbu { rd, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off);
                let v = try_op!(mem.read_u8(a)) as u32;
                cpu.set_reg(rd, v);
                retire_load!(a);
            }
            Op::Sb { rs2, rs1, off } => {
                let a = cpu.reg(rs1).wrapping_add(off);
                try_op!(mem.guest_write_u8(pc!(), a, cpu.reg(rs2) as u8));
                retire_store!(a);
            }
            Op::Lwa { rd, addr } => {
                let v = try_op!(mem.read_u32(addr));
                cpu.set_reg(rd, v);
                retire!();
            }
            Op::Swa { rs, addr } => {
                try_op!(mem.guest_write_u32(pc!(), addr, cpu.reg(rs)));
                retire_store!(addr);
            }
            Op::Push { rs } => {
                let val = cpu.reg(rs);
                let sp = cpu.sp().wrapping_sub(4);
                try_op!(mem.guest_write_u32(pc!(), sp, val));
                cpu.set_sp(sp);
                retire_store!(sp);
            }
            Op::Pop { rd } => {
                let sp = cpu.sp();
                let v = try_op!(mem.read_u32(sp));
                cpu.set_sp(sp.wrapping_add(4));
                cpu.set_reg(rd, v); // rd == sp overrides, like the interpreter
                retire_load!(sp);
            }
            Op::Pushf => {
                let sp = cpu.sp().wrapping_sub(4);
                try_op!(mem.guest_write_u32(pc!(), sp, cpu.flags.to_bits()));
                cpu.set_sp(sp);
                retire_store!(sp);
            }
            Op::Popf => {
                let sp = cpu.sp();
                let v = try_op!(mem.read_u32(sp));
                cpu.set_sp(sp.wrapping_add(4));
                cpu.flags = Flags::from_bits(v);
                retire_load!(sp);
            }
            Op::Cmp { rs1, rs2 } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), cpu.reg(rs2));
                retire!();
            }
            Op::Cmpi { rs1, rhs } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), rhs);
                retire!();
            }
            Op::CmpBr {
                rs1,
                rs2,
                cond,
                target,
            } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), cpu.reg(rs2));
                fused_branch!(cond, target);
            }
            Op::CmpiBr {
                rs1,
                rhs,
                cond,
                target,
            } => {
                cpu.flags = Flags::from_compare(cpu.reg(rs1), rhs);
                fused_branch!(cond, target);
            }
            Op::CondBr { cond, target } => {
                if cond.eval(cpu.flags) {
                    let mut ev = t.ev;
                    ev.control.taken = true;
                    ev.control.target = target;
                    observer.on_retire(&ev);
                    retired += 1;
                    // Direct-threaded backedge: a taken branch landing
                    // inside this very block (the hot-loop case) jumps
                    // straight to that op instead of paying a block
                    // exit and re-entry. The fuel check at the loop top
                    // still fires per op, and no store can have staled
                    // the block without already forcing a side exit.
                    let off = target.wrapping_sub(base);
                    let widx = (off >> 2) as usize;
                    if off & 3 == 0 && widx < block.ops.len() {
                        idx = widx;
                        continue;
                    }
                    cpu.pc = target;
                    return BlockExit {
                        kind: ExitKind::Continue,
                        retired,
                    };
                }
                retire!();
            }
            Op::Jmp { target } => {
                observer.on_retire(&t.ev);
                retired += 1;
                let off = target.wrapping_sub(base);
                let widx = (off >> 2) as usize;
                if off & 3 == 0 && widx < block.ops.len() {
                    idx = widx;
                    continue;
                }
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::CallD { target, ret } => {
                let sp = cpu.sp().wrapping_sub(4);
                try_op!(mem.guest_write_u32(pc!(), sp, ret));
                cpu.set_sp(sp);
                let mut ev = t.ev;
                ev.mem = Some(MemAccess {
                    addr: sp,
                    len: 4,
                    is_store: true,
                });
                observer.on_retire(&ev);
                retired += 1;
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::Jr { rs } => {
                let target = cpu.reg(rs);
                let mut ev = t.ev;
                ev.control.target = target;
                observer.on_retire(&ev);
                retired += 1;
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::Callr { rs, ret } => {
                let target = cpu.reg(rs);
                let sp = cpu.sp().wrapping_sub(4);
                try_op!(mem.guest_write_u32(pc!(), sp, ret));
                cpu.set_sp(sp);
                let mut ev = t.ev;
                ev.mem = Some(MemAccess {
                    addr: sp,
                    len: 4,
                    is_store: true,
                });
                ev.control.target = target;
                observer.on_retire(&ev);
                retired += 1;
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::Ret => {
                let sp = cpu.sp();
                let target = try_op!(mem.read_u32(sp));
                cpu.set_sp(sp.wrapping_add(4));
                let mut ev = t.ev;
                ev.mem = Some(MemAccess {
                    addr: sp,
                    len: 4,
                    is_store: false,
                });
                ev.control.target = target;
                observer.on_retire(&ev);
                retired += 1;
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::Jmem { addr } => {
                let target = try_op!(mem.read_u32(addr));
                let mut ev = t.ev;
                ev.control.target = target;
                observer.on_retire(&ev);
                retired += 1;
                cpu.pc = target;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
            Op::Trap { code } => {
                observer.on_retire(&t.ev);
                retired += 1;
                cpu.pc = pc!().wrapping_add(4);
                return BlockExit {
                    kind: ExitKind::Trap(code),
                    retired,
                };
            }
            Op::Halt => {
                observer.on_retire(&t.ev);
                retired += 1;
                cpu.pc = pc!().wrapping_add(4);
                return BlockExit {
                    kind: ExitKind::Halted,
                    retired,
                };
            }
            Op::Nop => {
                retire!();
            }
            Op::FallThrough { next } => {
                cpu.pc = next;
                return BlockExit {
                    kind: ExitKind::Continue,
                    retired,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstrCounter, Machine, NullObserver, StepOutcome};
    use strata_asm::assemble;
    use strata_isa::encode;

    const SPIN: &str = r"
        li r1, 200
    top:
        addi r1, r1, -1
        xor r2, r2, r1
        cmpi r1, 0
        bne top
        halt
    ";

    fn machine_with(src: &str, tier: ExecTier) -> Machine {
        let mut m = Machine::new(0x1_0000);
        let code = assemble(0x1000, src).expect("assembles");
        m.write_code(0x1000, &code).unwrap();
        m.cpu_mut().pc = 0x1000;
        m.set_tier(tier);
        m
    }

    fn threaded(threshold: u32) -> ExecTier {
        ExecTier::Threaded(TierConfig {
            threshold,
            ..TierConfig::default()
        })
    }

    #[test]
    fn tier_parse() {
        assert_eq!(ExecTier::parse("interp").unwrap(), ExecTier::Interp);
        assert!(matches!(
            ExecTier::parse("threaded").unwrap(),
            ExecTier::Threaded(_)
        ));
        match ExecTier::parse("threaded:0").unwrap() {
            ExecTier::Threaded(cfg) => assert_eq!(cfg.threshold, 1, "threshold clamps to 1"),
            other => panic!("{other:?}"),
        }
        assert!(ExecTier::parse("").is_err());
        assert!(ExecTier::parse("threaded:x").is_err());
        assert!(ExecTier::parse("cranelift").is_err());
    }

    #[test]
    fn hot_loop_promotes_and_matches_interpreter() {
        let mut interp = machine_with(SPIN, ExecTier::Interp);
        let mut tiered = machine_with(SPIN, threaded(4));
        let mut ci = InstrCounter::default();
        let mut ct = InstrCounter::default();
        assert_eq!(interp.run(&mut ci, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(tiered.run(&mut ct, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(ci.retired(), ct.retired());
        assert_eq!(interp.cpu(), tiered.cpu());
        let stats = tiered.tier_stats().expect("tier enabled");
        assert!(stats.blocks_translated >= 1, "loop head must promote");
        assert!(
            stats.translated_retired > ct.retired() / 2,
            "most instructions must retire from translated code \
             (got {} of {})",
            stats.translated_retired,
            ct.retired()
        );
    }

    #[test]
    fn promotion_waits_for_threshold() {
        // 199 arrivals at the loop head with threshold 1000: no translation.
        let mut m = machine_with(SPIN, threaded(1000));
        m.run(&mut NullObserver, 10_000).unwrap();
        assert_eq!(m.tier_stats().unwrap().blocks_translated, 0);

        let mut m = machine_with(SPIN, threaded(3));
        m.run(&mut NullObserver, 10_000).unwrap();
        assert!(m.tier_stats().unwrap().blocks_translated >= 1);
    }

    #[test]
    fn fuel_boundaries_are_exact_mid_block() {
        // Slicing fuel one instruction at a time must observe exactly
        // the interpreter's states even while inside a translated block.
        let mut interp = machine_with(SPIN, ExecTier::Interp);
        let mut tiered = machine_with(SPIN, threaded(2));
        loop {
            let a = interp.run(&mut NullObserver, 3);
            let b = tiered.run(&mut NullObserver, 3);
            assert_eq!(a, b);
            assert_eq!(interp.cpu(), tiered.cpu(), "state at a fuel boundary");
            if a == Ok(StepOutcome::Halted) {
                break;
            }
        }
    }

    #[test]
    fn zero_fuel_is_out_of_fuel() {
        let mut m = machine_with(SPIN, threaded(1));
        assert_eq!(
            m.run(&mut NullObserver, 0),
            Err(MachineError::OutOfFuel { steps: 0 })
        );
    }

    #[test]
    fn store_into_hot_region_invalidates_translated_blocks() {
        // The loop patches its own `xor` into a `nop` mid-run: the
        // translated superblock must be flushed and the patched
        // instruction must take effect, exactly as under interpretation.
        let src = r"
            li r1, 40
            li r6, patchee
            li r7, 0          ; packed nop written below
        top:
            addi r1, r1, -1
        patchee:
            xor r2, r2, r1
            cmpi r1, 20
            bne skip
            sw r7, 0(r6)      ; patch the xor -> nop at iteration 20
        skip:
            cmpi r1, 0
            bne top
            halt
        ";
        // Write the encoded nop into r7 after assembly (li of a label
        // can't encode an instruction word, so pre-seed the register).
        let mut interp = machine_with(src, ExecTier::Interp);
        let mut tiered = machine_with(src, threaded(2));
        let nop = encode(&Instr::Nop);
        interp.cpu_mut().set_reg(Reg::R7, nop);
        tiered.cpu_mut().set_reg(Reg::R7, nop);

        let mut ci = InstrCounter::default();
        let mut ct = InstrCounter::default();
        assert_eq!(interp.run(&mut ci, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(tiered.run(&mut ct, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(interp.cpu(), tiered.cpu(), "SMC must behave identically");
        assert_eq!(ci.retired(), ct.retired());

        let stats = tiered.tier_stats().unwrap();
        assert!(stats.blocks_translated >= 2, "re-translated after flush");
        assert!(stats.flushes >= 1, "store into hot region must flush");
    }

    #[test]
    fn trap_resumes_identically() {
        let src = "nop\ntrap 0x7\nli r1, 9\nhalt\n";
        let mut m = machine_with(src, threaded(1));
        // First pass interprets; run it hot enough to translate by
        // restarting at the same pc a few times.
        for _ in 0..4 {
            m.cpu_mut().pc = 0x1000;
            let out = m.run(&mut NullObserver, 100).unwrap();
            assert_eq!(out, StepOutcome::Trap(0x7));
            let out = m.run(&mut NullObserver, 100).unwrap();
            assert_eq!(out, StepOutcome::Halted);
            assert_eq!(m.cpu().reg(Reg::R1), 9);
        }
        assert!(m.tier_stats().unwrap().blocks_translated >= 1);
    }

    #[test]
    fn faults_surface_identically_from_blocks() {
        // A hot block whose load goes out of bounds once r5 is clobbered:
        // the fault must surface with pc at the faulting instruction and
        // identical state to interpretation.
        let src = r"
            li r5, 0x2000
            li r1, 6
        top:
            lw r2, 0(r5)
            addi r1, r1, -1
            cmpi r1, 3
            bne cont
            lui r5, 0xFFFF    ; push the pointer out of bounds
        cont:
            cmpi r1, 0
            bne top
            halt
        ";
        let mut interp = machine_with(src, ExecTier::Interp);
        let mut tiered = machine_with(src, threaded(2));
        let a = interp.run(&mut NullObserver, 10_000);
        let b = tiered.run(&mut NullObserver, 10_000);
        assert_eq!(a, b);
        assert!(matches!(a, Err(MachineError::OutOfBounds { .. })));
        assert_eq!(interp.cpu(), tiered.cpu());
    }

    #[test]
    fn retire_streams_are_bit_identical() {
        #[derive(Default)]
        struct Rec(Vec<RetireEvent>);
        impl ExecutionObserver for Rec {
            fn on_retire(&mut self, ev: &RetireEvent) {
                self.0.push(*ev);
            }
        }
        let src = r"
            li r1, 30
            li r5, 0x3000
        top:
            push r1
            pop r2
            sw r1, 4(r5)
            lw r3, 4(r5)
            call fn
            addi r1, r1, -1
            cmpi r1, 0
            bne top
            halt
        fn:
            add r4, r4, r1
            ret
        ";
        let mut interp = machine_with(src, ExecTier::Interp);
        let mut tiered = machine_with(src, threaded(2));
        let mut ra = Rec::default();
        let mut rb = Rec::default();
        assert_eq!(interp.run(&mut ra, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(tiered.run(&mut rb, 10_000).unwrap(), StepOutcome::Halted);
        assert_eq!(ra.0, rb.0, "retire streams must match event for event");
    }

    #[test]
    fn corrupt_side_exit_hook_changes_behavior() {
        let mut m = machine_with(SPIN, threaded(2));
        // Nothing to corrupt before any block exists.
        assert!(!m.corrupt_translated_side_exit());
        m.run(&mut NullObserver, 50).unwrap_err(); // OutOfFuel, now hot
        assert!(m.corrupt_translated_side_exit(), "block with cond branch");

        // A corrupted taken-branch target must diverge from a clean run.
        // (Final register state can coincide — the skipped/extra ops of
        // this loop cancel — but the retire stream cannot.)
        let mut clean = machine_with(SPIN, ExecTier::Interp);
        clean.run(&mut NullObserver, 50).unwrap_err();
        let mut ca = InstrCounter::default();
        let mut cb = InstrCounter::default();
        let a = m.run(&mut ca, 10_000);
        let b = clean.run(&mut cb, 10_000);
        assert!(
            a != b || ca.retired() != cb.retired() || m.cpu() != clean.cpu(),
            "corruption must be observable"
        );
    }

    #[test]
    fn unaligned_and_wild_pcs_fall_back_to_interp_errors() {
        let mut m = machine_with("halt\n", threaded(1));
        m.cpu_mut().pc = 0x1001;
        assert_eq!(
            m.run(&mut NullObserver, 10),
            Err(MachineError::UnalignedPc { pc: 0x1001 })
        );
        let mut m = machine_with("halt\n", threaded(1));
        m.cpu_mut().pc = 0xFFFF_FFF0;
        assert!(matches!(
            m.run(&mut NullObserver, 10),
            Err(MachineError::OutOfBounds { .. })
        ));
    }
}
