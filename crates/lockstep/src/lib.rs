//! Lockstep differential verification for the decimal co-design framework.
//!
//! The paper's methodology trusts three simulators — the functional
//! (Spike-role) core, the cycle-accurate Rocket-like core, and the
//! Gem5-`AtomicSimpleCPU`-like model — to agree on the architectural
//! behaviour of every guest binary. Here all three are a
//! [`riscv_sim::Machine`] with a different timing model, so the agreement
//! says no timing model perturbs architecture. This crate *checks* that
//! trust, the way Spike-based co-simulation checks an RTL core:
//!
//! * every simulator emits a **canonical retirement stream**
//!   ([`riscv_sim::RetirementRecord`]): pc, decoded instruction, register
//!   writeback, memory effect, RoCC response value;
//! * [`run_lockstep`] steps two simulators through the same program and
//!   compares the streams retirement by retirement, reporting the first
//!   [`Divergence`] with the pc, the instruction, the register/memory
//!   delta, and the last retirements of shared context. Steps are compared
//!   in place against the post-step state; records are built only for the
//!   report, whose context is rebuilt by re-running the first side from a
//!   fresh build;
//! * the [`fuzz`] module generates seeded random-but-valid RV64IM programs
//!   (with RoCC command sequences mixed in), lockstep-checks every
//!   simulator pair, and shrinks failures to minimal programs by delta
//!   debugging;
//! * the [`rocc_diff`] module drives the decimal accelerator and an
//!   independent binary-arithmetic software model with the same command
//!   sequences;
//! * the [`inject`] module provides deliberately-faulty accelerators
//!   (wrong digit, stuck interface FSM) to prove the comparator catches
//!   RoCC-level bugs;
//! * the [`campaign`] module runs seeded single-bit fault-injection
//!   campaigns over the accelerator's architectural state, classifying
//!   every fault as masked, detected in-band, caught by the watchdog, or
//!   silent data corruption;
//! * the [`supervisor`] module bounds every replayed case with instruction
//!   fuel, a memory-page cap, and a wall-clock budget, classifies every
//!   termination into a typed [`supervisor::RunOutcome`], and retries
//!   wedged cases a bounded number of times before quarantining them;
//! * the [`journal`] module provides the append-only, checksummed
//!   write-ahead journal that makes campaigns resumable: a killed run
//!   restarted with its journal completes with a byte-identical report.
//!
//! Cycle counts are timing, not architecture: guest `rdcycle` values
//! legitimately differ across timing models and are masked by the
//! comparator ([`canonical`]); `rdinstret` is identical everywhere and is
//! compared.
//!
//! # Example
//!
//! ```
//! use lockstep::{run_program_pair, LockstepOptions, Pair};
//! use riscv_asm::assemble;
//!
//! let program = assemble(
//!     "start:\n    li a0, 0\n    li a7, 93\n    ecall\n",
//! ).unwrap();
//! for pair in Pair::ALL {
//!     let outcome = run_program_pair(&program, pair, false, &LockstepOptions::default());
//!     assert!(outcome.is_agreement(), "{pair}: {:?}", outcome.divergence());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod compare;
pub mod fuzz;
mod guest;
pub mod inject;
pub mod journal;
pub mod rocc_diff;
pub mod supervisor;

pub use compare::{
    canonical, run_lockstep, Divergence, LockstepOptions, LockstepOutcome, LockstepSim, RegDelta,
    StepOutcome, Termination, DEFAULT_CONTEXT,
};
pub use guest::{
    check_kernel_all_pairs, guest_budget, load_program, run_guest_pair, run_program_pair, Pair,
    SimKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::{assemble, Program, TEXT_BASE};
    use riscv_isa::Reg;
    use riscv_sim::{Coprocessor, Cpu, CpuError, Event, Machine, Retired};

    /// A functional core with a deliberate fault: `after_step` runs after
    /// every step and may corrupt the core's state.
    struct FaultySim<F> {
        label: &'static str,
        cpu: Cpu,
        after_step: F,
    }

    impl<F: FnMut(&mut Cpu, &Event)> LockstepSim for FaultySim<F> {
        fn label(&self) -> &'static str {
            self.label
        }

        fn cpu(&self) -> &Cpu {
            &self.cpu
        }

        fn cpu_mut(&mut self) -> &mut Cpu {
            &mut self.cpu
        }

        fn step_sim(&mut self) -> Result<Event, CpuError> {
            let event = self.cpu.step()?;
            (self.after_step)(&mut self.cpu, &event);
            Ok(event)
        }
    }

    fn faulty<F: FnMut(&mut Cpu, &Event)>(label: &'static str, after_step: F) -> FaultySim<F> {
        FaultySim { label, cpu: Cpu::new(), after_step }
    }

    /// A single-instruction semantic mutation: after the instruction at
    /// `mutate_at` first retires, its destination register is corrupted
    /// (bit 0 flipped), modelling an executor bug at exactly one retirement.
    fn mutant(mutate_at: u64) -> impl LockstepSim {
        let mut fired = false;
        faulty("mutant", move |cpu, event| {
            if let Event::Retired(retired) = event {
                if retired.pc == mutate_at && !fired {
                    fired = true;
                    if let Some(rd) = retired.instr.dest() {
                        cpu.set_reg(rd, cpu.reg(rd) ^ 1);
                    }
                }
            }
        })
    }

    /// A core whose stores are corrupted after the fact: one bit of the
    /// bytes each store has just written is flipped, registers untouched.
    fn store_flip() -> impl LockstepSim {
        faulty("store-flip", |cpu, event| {
            if let Event::Retired(Retired { mem_access: Some(access), .. }) = event {
                if access.store {
                    let byte = cpu.memory.read_u8(access.addr).unwrap();
                    cpu.memory.write_u8(access.addr, byte ^ 0x10).unwrap();
                }
            }
        })
    }

    /// A core that appends to its console when the program exits: its
    /// retirement stream is correct, its final state is not.
    fn loud_exit() -> impl LockstepSim {
        faulty("loud-exit", |cpu, event| {
            if let Event::Exited { .. } = event {
                cpu.console.push(b'!');
            }
        })
    }

    /// Loads `program` into `sim`, ready for a lockstep run.
    fn loaded<S: LockstepSim>(mut sim: S, program: &Program) -> S {
        load_program(sim.cpu_mut(), program);
        sim
    }

    /// A functional machine with `coprocessor` attached and `program`
    /// loaded.
    fn with_accelerator(program: &Program, coprocessor: Box<dyn Coprocessor>) -> Machine<()> {
        let mut sim = Machine::<()>::new(());
        sim.attach_coprocessor(coprocessor);
        loaded(sim, program)
    }

    const STRAIGHT_LINE: &str = "
        start:
            li t0, 5
            addi t1, t0, 1
            addi t2, t1, 2
            addi t3, t2, 3
            li a0, 0
            li a7, 93
            ecall
    ";

    #[test]
    fn mutation_self_check_reports_exact_pc() {
        // The single mutated retirement must be the reported divergence
        // point — this is the checker checking itself — and the report must
        // carry the retirements immediately before it, at most
        // `options.context` of them.
        let long_line = format!(
            "start:\n{}    li a0, 0\n    li a7, 93\n    ecall\n",
            "    addi t0, t0, 1\n".repeat(20)
        );
        let default = LockstepOptions::default();
        let no_context = LockstepOptions { context: 0, ..default };
        // (program, index of the mutated instruction, its destination,
        // options, expected context length)
        let cases = [
            (STRAIGHT_LINE, 2, Reg::T2, default, 2),
            (long_line.as_str(), 15, Reg::T0, default, DEFAULT_CONTEXT),
            (STRAIGHT_LINE, 2, Reg::T2, no_context, 0),
        ];
        for (source, index, dest, options, context_len) in cases {
            let program = assemble(source).unwrap();
            let mutated_pc = TEXT_BASE + 4 * index;
            let outcome = run_lockstep(
                || loaded(mutant(mutated_pc), &program),
                || loaded(Machine::<()>::new(()), &program),
                &options,
            );
            let divergence = outcome.divergence().expect("mutation must be caught");
            assert_eq!(divergence.pc, mutated_pc, "{divergence}");
            assert_eq!(divergence.step, index);
            assert!(
                divergence.reg_delta.iter().any(|d| d.reg == dest),
                "{divergence}"
            );
            assert_eq!(divergence.context.len(), context_len, "{divergence}");
            let first_seq = index + 1 - context_len as u64;
            for (offset, record) in (0..).zip(&divergence.context) {
                assert_eq!(record.seq, first_seq + offset, "{divergence}");
                assert_eq!(record.pc, TEXT_BASE + 4 * (record.seq - 1));
            }
            if let Some(last) = divergence.context.last() {
                assert_eq!(last.seq, divergence.step);
            }
        }
    }

    #[test]
    fn unmutated_pair_agrees() {
        let program = assemble(STRAIGHT_LINE).unwrap();
        // A mutant that never fires behaves exactly like the reference,
        // and an agreeing run builds side A exactly once: no context is
        // rebuilt unless the run diverges.
        let builds = std::cell::Cell::new(0);
        let outcome = run_lockstep(
            || {
                builds.set(builds.get() + 1);
                loaded(mutant(u64::MAX), &program)
            },
            || loaded(Machine::<()>::new(()), &program),
            &LockstepOptions::default(),
        );
        assert!(outcome.is_agreement());
        assert_eq!(builds.get(), 1);
    }

    /// Stores a value, loads it back and exits.
    const STORE_THEN_LOAD: &str = "
        start:
            la t0, slot
            li t1, 0x1234
            sd t1, 0(t0)
            ld t2, 0(t0)
            li a0, 0
            li a7, 93
            ecall
        .data
        .align 3
        slot:
            .dword 0
    ";

    #[test]
    fn store_corrupted_in_memory_is_caught_at_the_store() {
        // Only the bytes in memory differ, never a register: the comparator
        // must read the stored value back from each side's memory.
        let program = assemble(STORE_THEN_LOAD).unwrap();
        let outcome = run_lockstep(
            || loaded(Machine::<()>::new(()), &program),
            || loaded(store_flip(), &program),
            &LockstepOptions::default(),
        );
        let divergence = outcome.divergence().expect("store corruption must be caught");
        assert_eq!(divergence.pc, TEXT_BASE + 4 * 4, "{divergence}");
        assert!(divergence.reg_delta.is_empty(), "{divergence}");
        let (a_mem, b_mem) = divergence.mem_delta.expect("memory delta");
        let (a_mem, b_mem) = (a_mem.unwrap(), b_mem.unwrap());
        assert!(a_mem.store && b_mem.store);
        assert_eq!((a_mem.value, b_mem.value), (0x1234, 0x1224));
    }

    #[test]
    fn divergence_reports_match_the_pinned_text() {
        // Every kind of divergence report, byte for byte: register and
        // memory deltas, a fault on one side, a final-state mismatch, and
        // context that is empty, short, full, or spans a delivered trap.
        fn report<A: LockstepSim, B: LockstepSim>(
            a: impl Fn() -> A,
            b: impl Fn() -> B,
            context: usize,
        ) -> String {
            let options = LockstepOptions { context, ..LockstepOptions::default() };
            run_lockstep(a, b, &options).divergence().expect("must diverge").to_string()
        }
        fn functional(program: &Program) -> impl Fn() -> Machine<()> + '_ {
            move || loaded(Machine::<()>::new(()), program)
        }
        fn accelerated(
            program: &Program,
            coprocessor: fn() -> Box<dyn Coprocessor>,
        ) -> impl Fn() -> Machine<()> + '_ {
            move || with_accelerator(program, coprocessor())
        }
        let long_line = assemble(&format!(
            "start:\n{}    li a0, 0\n    li a7, 93\n    ecall\n",
            "    addi t0, t0, 1\n".repeat(20)
        ))
        .unwrap();
        let straight_line = assemble(STRAIGHT_LINE).unwrap();
        let mut actual = Vec::new();
        for context in [DEFAULT_CONTEXT, 0] {
            for (name, program, index) in [
                ("straight 2", &straight_line, 2),
                ("long 15", &long_line, 15),
            ] {
                let mutated = || loaded(mutant(TEXT_BASE + 4 * index), program);
                actual.push((
                    format!("{name} ctx {context}"),
                    report(mutated, functional(program), context),
                ));
            }
        }
        let good = || -> Box<dyn Coprocessor> { Box::new(rocc::DecimalAccelerator::new()) };
        let wrong_digit = assemble(
            "
            start:
                li t0, 0x15
                li t1, 0x27
                custom0 4, t2, t0, t1, 1, 1, 1
                li a0, 0
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        actual.push((
            "wrong digit".to_string(),
            report(
                accelerated(&wrong_digit, good),
                accelerated(&wrong_digit, || {
                    Box::new(inject::WrongDigitAccelerator::new(rocc::DecimalFunct::DecAdd))
                }),
                DEFAULT_CONTEXT,
            ),
        ));
        let stuck = assemble(
            "
            start:
                li t0, 0x11
                custom0 4, t2, t0, t0, 1, 1, 1
                li t0, 0x15
                li t1, 0x27
                custom0 4, t3, t0, t1, 1, 1, 1
                li a0, 0
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        actual.push((
            "stuck".to_string(),
            report(
                accelerated(&stuck, good),
                accelerated(&stuck, || Box::new(inject::StuckFsmAccelerator::new(1))),
                DEFAULT_CONTEXT,
            ),
        ));
        actual.push((
            "final".to_string(),
            report(
                functional(&straight_line),
                || loaded(loud_exit(), &straight_line),
                DEFAULT_CONTEXT,
            ),
        ));
        // The last 8 positions before the mutated `addi` include the
        // delivered load-fault trap, which counts as a step but retires
        // nothing.
        let trap_then_mutate = assemble(
            "
            start:
                la   t0, handler
                csrrw zero, 0x305, t0
                li   s0, 0
                li   t0, 0x666000
                ld   t1, 0(t0)
                addi s0, s0, 1
            mutated:
                addi s0, s0, 2
                mv   a0, s0
                li   a7, 93
                ecall
            handler:
                csrrs t1, 0x342, zero
                add  s0, s0, t1
                csrrs t1, 0x341, zero
                addi t1, t1, 4
                csrrw zero, 0x341, t1
                mret
            ",
        )
        .unwrap();
        let mutated_pc = trap_then_mutate.symbol("mutated").unwrap();
        actual.push((
            "trap".to_string(),
            report(
                || loaded(mutant(mutated_pc), &trap_then_mutate),
                functional(&trap_then_mutate),
                DEFAULT_CONTEXT,
            ),
        ));
        let store_then_load = assemble(STORE_THEN_LOAD).unwrap();
        actual.push((
            "store flip".to_string(),
            report(
                functional(&store_then_load),
                || loaded(store_flip(), &store_then_load),
                DEFAULT_CONTEXT,
            ),
        ));

        let pinned: Vec<(&str, &str)> = include_str!("../tests/divergence_reports.txt")
            .split("=== ")
            .skip(1)
            .map(|section| section.split_once('\n').unwrap())
            .collect();
        assert_eq!(
            actual.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
            pinned.iter().map(|(name, _)| *name).collect::<Vec<_>>()
        );
        for ((name, text), (_, pinned_text)) in actual.iter().zip(&pinned) {
            assert_eq!(text, pinned_text, "report `{name}` changed");
        }
    }

    #[test]
    fn rdcycle_is_masked_but_rdinstret_is_compared() {
        // rdcycle reads each timing model's own counter — the functional
        // and rocket cores disagree wildly on it, and the comparator must
        // not flag that. rdinstret is architectural and must agree.
        let program = assemble(
            "
            start:
                nop
                nop
                rdcycle t0
                rdinstret t1
                li a0, 0
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        for pair in Pair::ALL {
            let outcome = run_program_pair(&program, pair, false, &LockstepOptions::default());
            assert!(
                outcome.is_agreement(),
                "{pair}: {}",
                outcome.divergence().unwrap()
            );
        }
    }

    #[test]
    fn matching_faults_are_agreement() {
        // Both sides hit the same unmapped load: architectural agreement.
        let program = assemble(
            "
            start:
                li t0, 0x666000
                ld a0, 0(t0)
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        let outcome = run_program_pair(
            &program,
            Pair { a: SimKind::Functional, b: SimKind::Rocket },
            false,
            &LockstepOptions::default(),
        );
        match outcome {
            LockstepOutcome::Agreement {
                termination: Termination::MatchingFault(CpuError::UnmappedAddress(0x66_6000)),
                ..
            } => {}
            other => panic!("expected matching fault, got {other:?}"),
        }
    }

    #[test]
    fn fuzz_smoke_run_is_clean() {
        let report = fuzz::run_fuzz(&fuzz::FuzzConfig {
            programs: 15,
            body_items: 30,
            ..fuzz::FuzzConfig::default()
        });
        assert_eq!(report.programs_run, 15);
        assert_eq!(report.pairs_checked, 45);
        if let Some(failure) = report.failures.first() {
            panic!(
                "program {} on {} diverged:\n{}\nshrunk to:\n{}",
                failure.program_index, failure.pair, failure.divergence, failure.shrunk_source
            );
        }
        assert!(report.instructions_checked > 0);
    }

    #[test]
    fn fuzz_is_deterministic_in_the_seed() {
        let config = fuzz::FuzzConfig::default();
        assert_eq!(
            fuzz::nth_program_source(&config, 3),
            fuzz::nth_program_source(&config, 3)
        );
        assert_ne!(
            fuzz::nth_program_source(&config, 3),
            fuzz::nth_program_source(&config, 4)
        );
    }

    #[test]
    fn fuzzer_catches_and_shrinks_an_injected_divergence() {
        // Wrong-digit DEC_ADD on one side of the pair: the fuzzer's own
        // machinery (generate → lockstep → shrink) must find the mutant
        // and shrink the failure down to a program that still contains a
        // DEC_ADD command.
        use crate::compare::{run_lockstep, LockstepOptions};
        use crate::fuzz::{generate_items, render_program, shrink_items, Item, SplitMix64};
        use crate::inject::WrongDigitAccelerator;
        use rocc::{DecimalAccelerator, DecimalFunct};

        let mut rng = SplitMix64::new(7);
        let mut items = generate_items(&mut rng, 60, true);
        // A DEC_ADD that always executes (no branch skips past the last
        // item), so the wrong-digit mutant is guaranteed to be exercised.
        items.push(Item::new(
            "bdec",
            vec![
                "li t0, 0x15".to_string(),
                "li t1, 0x27".to_string(),
                "custom0 4, t2, t0, t1, 1, 1, 1".to_string(),
            ],
        ));
        let items = items;
        let tail = rng.clone();
        let render = |items: &[crate::fuzz::Item]| render_program(items, &mut tail.clone());
        let reproduces = |items: &[crate::fuzz::Item]| {
            let Ok(program) = assemble(&render(items)) else {
                return false;
            };
            let good = || with_accelerator(&program, Box::new(DecimalAccelerator::new()));
            let bad = || {
                with_accelerator(
                    &program,
                    Box::new(WrongDigitAccelerator::new(DecimalFunct::DecAdd)),
                )
            };
            !run_lockstep(good, bad, &LockstepOptions::default()).is_agreement()
        };
        assert!(
            reproduces(&items),
            "the appended DEC_ADD item must expose the wrong-digit mutant"
        );
        let shrunk = shrink_items(items.clone(), &reproduces);
        assert!(shrunk.len() < items.len(), "shrinker should remove items");
        assert!(reproduces(&shrunk));
        let shrunk_source = render(&shrunk);
        assert!(
            shrunk_source.contains("custom0 4,"),
            "minimal program keeps the DEC_ADD:\n{shrunk_source}"
        );
    }

    #[test]
    fn rocc_command_differential_is_clean() {
        let report = rocc_diff::fuzz_rocc_commands(2019, 3_000);
        assert_eq!(report.commands_run, 3_000);
        assert!(report.ok(), "{:#?}", report.mismatches);
    }

    #[test]
    fn rocc_differential_catches_a_model_bug() {
        // Sanity: if the comparison were vacuous, a corrupted command
        // stream would pass too. Drive the accelerator directly out of
        // sync and check the differential notices.
        use rocc::{DecimalAccelerator, DecimalFunct};
        let mut accelerator = DecimalAccelerator::new();
        let mut model = rocc_diff::SoftwareModel::new();
        accelerator
            .command(DecimalFunct::DecAdd, 0x15, 0x27, 0, 0, 0)
            .unwrap();
        let rd = model.command(DecimalFunct::DecAdd, 0x15, 0x26, 0, 0, 0).unwrap();
        assert_ne!(rd, Some(0x42));
    }
}
