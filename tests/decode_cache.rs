//! Stale-decode tests: code that changes after it has run must execute as
//! its new bytes, on every simulator.
//!
//! Guest memory keeps each page's decoded instructions until something
//! writes into the page. Each test runs code once, rewrites it by a
//! different route (a guest store, a store that crosses into text from the
//! page before, a host `load_bytes`, a snapshot restore, a trap handler),
//! and checks an exit code worked out by hand. Lockstep agreement would
//! prove nothing here: all three simulators share one `Memory`, so a stale
//! decode would make them agree on the wrong answer.

use decimalarith::atomic_sim::AtomicTiming;
use decimalarith::lockstep::load_program;
use decimalarith::riscv_asm::{assemble, Program};
use decimalarith::riscv_isa::csr::cause;
use decimalarith::riscv_isa::instr::OpImmOp;
use decimalarith::riscv_isa::{Instr, Reg};
use decimalarith::riscv_sim::{Event, Machine, TimingModel};
use decimalarith::rocket_sim::RocketTiming;

/// The encoding of `addi a0, a0, imm`.
fn addi_a0(imm: i32) -> u32 {
    Instr::OpImm {
        op: OpImmOp::Addi,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm,
    }
    .encode()
    .expect("addi encodes")
}

/// A loop that runs `slot` four times, counting into `a0`, and exits with
/// `a0`. Unpatched it exits with 4 times `slot`'s increment. `patch` runs
/// after the second pass, with `s0` = 2.
fn counting_loop(slot: &str, patch: &str) -> String {
    format!(
        "
    start:
        li   a0, 0
        li   s0, 0
    slot:
        {slot}
        addi s0, s0, 1
        li   t2, 2
        bne  s0, t2, skip
        {patch}
    skip:
        li   t2, 4
        blt  s0, t2, slot
        li   a7, 93
        ecall
"
    )
}

fn load<T: TimingModel>(program: &Program) -> Machine<T>
where
    T::Config: Default,
{
    let mut sim = Machine::<T>::default();
    load_program(&mut sim.cpu, program);
    sim
}

fn exit_code<T: TimingModel>(sim: &mut Machine<T>) -> i64 {
    sim.run(10_000).expect("guest exits").exit_code
}

/// Steps until the guest is at `slot` with `s0` = 2: the slot has run
/// twice and has not been patched.
fn run_to_third_pass<T: TimingModel>(sim: &mut Machine<T>, slot: u64) {
    for _ in 0..10_000 {
        if sim.cpu.pc() == slot && sim.cpu.reg(Reg::S0) == 2 {
            return;
        }
        assert!(matches!(sim.step(), Ok(Event::Retired(_))));
    }
    panic!("guest never reached its third pass");
}

/// A guest `sw` replaces an instruction that already ran twice.
fn store_over_executed_code<T: TimingModel>()
where
    T::Config: Default,
{
    let source = counting_loop(
        "addi a0, a0, 1",
        &format!("la t0, slot\n li t1, {}\n sw t1, 0(t0)", addi_a0(100)),
    );
    let program = assemble(&source).expect("guest assembles");
    // Two passes add 1, the patched two add 100.
    assert_eq!(exit_code(&mut load::<T>(&program)), 202, "{}", T::LABEL);
}

/// An `sd` that starts on the last word of one text page rewrites
/// `slot`, the first word of the next, after `slot` ran twice.
fn page_crossing_store_into_text<T: TimingModel>()
where
    T::Config: Default,
{
    let source = format!(
        "
    start:
        li   a0, 0
        li   s0, 0
        la   t0, slot
        addi t0, t0, -4
        li   t1, {new}
        slli t1, t1, 32
        ori  t1, t1, 0x13          # low word: the nop already there
        .align 12                  # nops up to the page boundary
    slot:
        addi a0, a0, 1
        addi s0, s0, 1
        li   t2, 2
        bne  s0, t2, skip
        sd   t1, 0(t0)             # crosses into slot's page
    skip:
        li   t2, 4
        blt  s0, t2, slot
        li   a7, 93
        ecall
",
        new = addi_a0(100)
    );
    let program = assemble(&source).expect("guest assembles");
    let slot = program.symbol("slot").expect("slot label");
    assert_eq!(slot % 0x1000, 0, "slot starts a page");
    assert_eq!(exit_code(&mut load::<T>(&program)), 202, "{}", T::LABEL);
}

/// The host loads new bytes over an instruction that already ran.
fn load_bytes_over_executed_code<T: TimingModel>()
where
    T::Config: Default,
{
    let program = assemble(&counting_loop("addi a0, a0, 1", "")).expect("guest assembles");
    let slot = program.symbol("slot").expect("slot label");
    let mut sim = load::<T>(&program);
    run_to_third_pass(&mut sim, slot);
    sim.cpu
        .memory
        .load_bytes(slot, &addi_a0(100).to_le_bytes())
        .expect("load succeeds");
    assert_eq!(exit_code(&mut sim), 202, "{}", T::LABEL);
}

/// Machine B runs its own text, then takes machine A's snapshot, whose
/// text differs at the same pc, and must continue as A would.
fn snapshot_into_machine_that_ran_other_code<T: TimingModel>()
where
    T::Config: Default,
{
    let a = assemble(&counting_loop("addi a0, a0, 1", "")).expect("guest A assembles");
    let b = assemble(&counting_loop("addi a0, a0, 100", "")).expect("guest B assembles");
    let slot = a.symbol("slot").expect("slot label");
    assert_eq!(b.symbol("slot"), Some(slot));

    let mut machine_b = load::<T>(&b);
    assert_eq!(exit_code(&mut machine_b), 400, "{}", T::LABEL);

    let mut machine_a = load::<T>(&a);
    run_to_third_pass(&mut machine_a, slot);
    machine_b
        .restore(&machine_a.snapshot())
        .expect("snapshot restores");
    assert_eq!(exit_code(&mut machine_b), 4, "{}", T::LABEL);
    assert_eq!(exit_code(&mut machine_a), 4, "{}", T::LABEL);
}

/// The guest makes an instruction it already ran undecodable; the illegal
/// instruction traps, the handler patches the word, and `mret` re-runs it.
fn trap_handler_patches_an_undecodable_word<T: TimingModel>()
where
    T::Config: Default,
{
    let source = format!(
        "
    start:
        la   t0, handler
        csrrw zero, 0x305, t0      # mtvec
        la   s1, slot
        li   s2, -1                # 0xffffffff does not decode
        li   s3, {new}
        li   a0, 0
        li   s0, 0
    slot:
        addi a0, a0, 1
        addi s0, s0, 1
        li   t2, 2
        bne  s0, t2, skip
        sw   s2, 0(s1)
    skip:
        li   t2, 4
        blt  s0, t2, slot
        li   a7, 93
        ecall
    handler:
        addi a0, a0, 1000
        sw   s3, 0(s1)
        mret                       # mepc is slot: run the patched word
",
        new = addi_a0(100)
    );
    let program = assemble(&source).expect("guest assembles");
    let slot = program.symbol("slot").expect("slot label");
    let mut sim = load::<T>(&program);
    // Two passes add 1, one trap adds 1000, the patched two add 100.
    assert_eq!(exit_code(&mut sim), 1202, "{}", T::LABEL);
    assert_eq!(sim.cpu.trap_log.len(), 1, "{}", T::LABEL);
    assert_eq!(sim.cpu.trap_log[0].cause, cause::ILLEGAL_INSTRUCTION);
    assert_eq!(sim.cpu.trap_log[0].epc, slot);
}

macro_rules! on_every_simulator {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                super::$name::<()>();
                super::$name::<RocketTiming>();
                super::$name::<AtomicTiming>();
            }
        )*
    };
}

mod on_all_simulators {
    use super::{AtomicTiming, RocketTiming};

    on_every_simulator!(
        store_over_executed_code,
        page_crossing_store_into_text,
        load_bytes_over_executed_code,
        snapshot_into_machine_that_ran_other_code,
        trap_handler_patches_an_undecodable_word,
    );
}
