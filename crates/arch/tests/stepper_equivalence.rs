//! Equivalence property test for the fused interpreter loop.
//!
//! [`Machine::run`] executes through the predecoded fast path;
//! [`Machine::step`] always takes the general fetch. The two are
//! documented to be bit-identical, and the charged guest cycles must not
//! depend on which one drove execution — that invariant is what lets the
//! hot loop be optimized freely without perturbing any experiment.
//!
//! Each trial draws a random SimRISC program from the shared
//! `strata-testgen` word generator (ALU ops, memory traffic,
//! calls/returns, indirect jumps, traps, deliberate error cases, and
//! **self-modifying stores into the code region**), then runs it twice
//! from identical initial state: once with `run` in random fuel slices,
//! once with a reference single-`step` loop consuming the same slices. At
//! every boundary (trap, halt, out-of-fuel, error) the CPU state, the
//! full retire-event streams, and the [`ArchModel`] cost/cache/predictor
//! counters must agree exactly.
//!
//! The tier-vs-tier analogue of this test (interp vs threaded) lives in
//! the workspace-level `difftest` suite on the same generator.

use strata_machine::{MachineError, StepOutcome};
use strata_stats::rng::SmallRng;
use strata_testgen::harness::{profile_for, run_by_steps, Recorder};
use strata_testgen::wordgen::WordProgram;

#[test]
fn fused_run_loop_matches_single_stepping() {
    let mut rng = SmallRng::seed_from_u64(0x57E9_0001);
    let mut total_retired = 0usize;
    for trial in 0..120u64 {
        let prog = WordProgram::generate(&mut rng);
        let mut fast = prog.instantiate();
        let mut reference = prog.instantiate();
        let mut rec_fast = Recorder::new(profile_for(trial));
        let mut rec_ref = Recorder::new(profile_for(trial));

        let mut steps = 0u64;
        while steps < 3_000 {
            let fuel = rng.gen_range(1u64..64);
            steps += fuel;
            let a = fast.run(&mut rec_fast, fuel);
            let b = run_by_steps(&mut reference, &mut rec_ref, fuel);
            assert_eq!(a, b, "trial {trial}: outcome diverged after ≤{steps} steps");
            assert_eq!(
                fast.cpu(),
                reference.cpu(),
                "trial {trial}: CPU state diverged after ≤{steps} steps"
            );
            assert_eq!(
                rec_fast.events, rec_ref.events,
                "trial {trial}: retire streams diverged after ≤{steps} steps"
            );
            assert_eq!(
                rec_fast.model.stats(),
                rec_ref.model.stats(),
                "trial {trial}"
            );
            assert_eq!(rec_fast.model.total_cycles(), rec_ref.model.total_cycles());
            assert_eq!(
                rec_fast.model.icache().hits(),
                rec_ref.model.icache().hits()
            );
            assert_eq!(
                rec_fast.model.icache().misses(),
                rec_ref.model.icache().misses()
            );
            assert_eq!(
                rec_fast.model.dcache().hits(),
                rec_ref.model.dcache().hits()
            );
            assert_eq!(
                rec_fast.model.dcache().misses(),
                rec_ref.model.dcache().misses()
            );
            assert_eq!(
                rec_fast.model.indirect_mispredicts(),
                rec_ref.model.indirect_mispredicts()
            );
            assert_eq!(
                rec_fast.model.cond_mispredicts(),
                rec_ref.model.cond_mispredicts()
            );
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
        total_retired += rec_fast.events.len();
    }
    // Sanity-check the generator: a healthy fraction of programs must
    // actually execute (a trial can legitimately retire nothing when its
    // first instruction faults, but not most of them).
    assert!(
        total_retired > 20_000,
        "only {total_retired} instructions retired over all trials"
    );
}
