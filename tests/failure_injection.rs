//! Failure injection: the framework must fail loudly and precisely, not
//! silently, when guests or inputs are malformed.

use decimalarith::riscv_asm::assemble;
use decimalarith::riscv_isa::Reg;
use decimalarith::riscv_sim::{Coprocessor, Cpu, CpuError, Machine};
use decimalarith::rocc::DecimalAccelerator;

fn run_with_accel(source: &str) -> Result<i64, CpuError> {
    let program = assemble(source).expect("test program assembles");
    let mut cpu = Cpu::new();
    cpu.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    for seg in program.segments() {
        if !seg.data.is_empty() {
            cpu.memory.load_bytes(seg.base, &seg.data).unwrap();
        }
    }
    cpu.set_pc(program.entry);
    cpu.set_reg(Reg::SP, decimalarith::riscv_asm::STACK_TOP);
    cpu.run(100_000)
}

#[test]
fn invalid_bcd_operand_to_dec_add_latches_in_band_status() {
    // The bad operand no longer kills the run: the command is dropped, the
    // fault latches, and STAT (funct7=12) reads it back in-band.
    let result = run_with_accel(
        "
        start:
            li a0, 0xA           # not a decimal digit
            li a1, 0x1
            custom0 4, a2, a1, a0, 1, 1, 1
            custom0 12, a0, zero, zero, 1, 0, 0
            li a7, 93
            ecall
        ",
    );
    // funct7=4 in bits 15:8, error flag bit 7, cause 1 (InvalidBcdOperand).
    assert_eq!(result.unwrap(), (4 << 8) | (1 << 7) | 1);
}

#[test]
fn unknown_rocc_function_latches_in_band_status() {
    let result = run_with_accel(
        "
        start:
            custom0 99, a0, a1, a2, 1, 1, 1
            custom0 12, a0, zero, zero, 1, 0, 0
            li a7, 93
            ecall
        ",
    );
    // funct7=99 in bits 15:8, error flag bit 7, cause 4 (UnknownFunction).
    assert_eq!(result.unwrap(), (99 << 8) | (1 << 7) | 4);
}

#[test]
fn custom_instruction_without_accelerator_faults() {
    let program = assemble(
        "
        start:
            custom0 4, a2, a1, a0, 1, 1, 1
            li a7, 93
            ecall
        ",
    )
    .unwrap();
    let mut cpu = Cpu::new(); // no coprocessor attached
    for seg in program.segments() {
        if !seg.data.is_empty() {
            cpu.memory.load_bytes(seg.base, &seg.data).unwrap();
        }
    }
    cpu.set_pc(program.entry);
    assert!(matches!(
        cpu.run(100),
        Err(CpuError::NoCoprocessor { funct7: 4 })
    ));
}

#[test]
fn wild_load_faults_with_the_address() {
    let result = run_with_accel(
        "
        start:
            li t0, 0x12345678
            ld a0, 0(t0)
            li a7, 93
            ecall
        ",
    );
    assert!(
        matches!(result, Err(CpuError::UnmappedAddress(0x1234_5678))),
        "got {result:?}"
    );
}

#[test]
fn runaway_guest_hits_the_instruction_limit() {
    let result = run_with_accel(
        "
        start:
            j start
        ",
    );
    assert!(matches!(result, Err(CpuError::InstructionLimit(_))));
}

#[test]
fn assembler_reports_precise_errors() {
    for (source, needle) in [
        ("start:\n    addi a0, a0, 5000\n", "immediate"),
        ("start:\n    frobnicate a0\n", "unknown mnemonic"),
        ("start:\n    beq a0, a1, nowhere\n", "undefined symbol"),
        ("start:\n    ld a0, 16\n", "offset(base)"),
        ("start:\n    .bogus 3\n", "unknown directive"),
    ] {
        let err = assemble(source).expect_err(source);
        assert!(
            err.message.contains(needle),
            "{source:?}: expected {needle:?} in {:?}",
            err.message
        );
    }
}

/// Loads `source` into a fresh core with the given coprocessor attached,
/// ready for a lockstep run.
fn machine_with(source: &str, coproc: Box<dyn Coprocessor>) -> Machine<()> {
    let program = assemble(source).expect("test program assembles");
    let mut sim = Machine::<()>::new(());
    sim.attach_coprocessor(coproc);
    decimalarith::lockstep::load_program(&mut sim.cpu, &program);
    sim
}

#[test]
fn lockstep_catches_a_wrong_digit_accelerator_at_the_custom0_pc() {
    // A broken BCD adder cell (low digit off by one) on one side of the
    // pair: the comparator must pin the divergence to the DEC_ADD
    // retirement itself, with the destination register in the delta.
    use decimalarith::lockstep::inject::WrongDigitAccelerator;
    use decimalarith::lockstep::{run_lockstep, LockstepOptions};
    use decimalarith::riscv_asm::TEXT_BASE;
    use decimalarith::rocc::DecimalFunct;

    let source = "
        start:
            li t0, 0x15
            li t1, 0x27
            custom0 4, t2, t0, t1, 1, 1, 1
            li a0, 0
            li a7, 93
            ecall
    ";
    let mut good = machine_with(source, Box::new(DecimalAccelerator::new()));
    let mut bad = machine_with(
        source,
        Box::new(WrongDigitAccelerator::new(DecimalFunct::DecAdd)),
    );
    let outcome = run_lockstep(&mut good, &mut bad, &LockstepOptions::default());
    let divergence = outcome.divergence().expect("wrong digit must be caught");
    assert_eq!(divergence.pc, TEXT_BASE + 2 * 4, "{divergence}");
    assert!(
        divergence.reg_delta.iter().any(|d| d.reg == Reg::T2),
        "{divergence}"
    );
    // BCD 15 + 27 = 42; the faulty datapath answers 43.
    assert!(
        divergence
            .reg_delta
            .iter()
            .any(|d| d.a_value == 0x42 && d.b_value == 0x43),
        "{divergence}"
    );
}

#[test]
fn lockstep_catches_a_stuck_interface_fsm_at_the_first_wedged_command() {
    // An interface FSM that wedges after one command: the second DEC_ADD
    // never completes its handshake on the faulty side. The busy-watchdog
    // bounds the hang and the comparator reports the asymmetric fault.
    use decimalarith::lockstep::inject::StuckFsmAccelerator;
    use decimalarith::lockstep::{run_lockstep, LockstepOptions, StepOutcome};
    use decimalarith::riscv_asm::TEXT_BASE;

    let source = "
        start:
            li t0, 0x11
            custom0 4, t2, t0, t0, 1, 1, 1
            li t0, 0x15
            li t1, 0x27
            custom0 4, t3, t0, t1, 1, 1, 1
            li a0, 0
            li a7, 93
            ecall
    ";
    let mut good = machine_with(source, Box::new(DecimalAccelerator::new()));
    let mut bad = machine_with(source, Box::new(StuckFsmAccelerator::new(1)));
    let outcome = run_lockstep(&mut good, &mut bad, &LockstepOptions::default());
    let divergence = outcome.divergence().expect("stuck FSM must be caught");
    assert_eq!(divergence.pc, TEXT_BASE + 4 * 4, "{divergence}");
    assert!(
        matches!(
            divergence.b,
            StepOutcome::Fault(CpuError::RoccTimeout { funct7: 4, .. })
        ),
        "{divergence}"
    );
    // Good side completed the sum; the wedged side never wrote t3.
    assert!(
        divergence
            .reg_delta
            .iter()
            .any(|d| d.reg == Reg::T3 && d.a_value == 0x42 && d.b_value == 0),
        "{divergence}"
    );
}

#[test]
fn ld_through_rocc_memory_interface_latches_memory_fault() {
    // LD (funct7=2) reads memory at the address in rs1; an unmapped address
    // latches MemoryFault (cause 5) instead of killing the run.
    let result = run_with_accel(
        "
        start:
            li a0, 0x666000
            custom0 2, zero, a0, x1, 0, 1, 0
            custom0 12, a0, zero, zero, 1, 0, 0
            li a7, 93
            ecall
        ",
    );
    assert_eq!(result.unwrap(), (2 << 8) | (1 << 7) | 5);
}

#[test]
fn clr_all_recovers_a_latched_fault_end_to_end() {
    // After CLR_ALL the accelerator computes again: 15 + 27 = 42 (BCD).
    let result = run_with_accel(
        "
        start:
            li a0, 0xA
            li a1, 0x1
            custom0 4, a2, a1, a0, 1, 1, 1     # latches InvalidBcdOperand
            custom0 5, zero, zero, zero, 0, 0, 0  # CLR_ALL clears it
            li t0, 0x15
            li t1, 0x27
            custom0 4, a0, t0, t1, 1, 1, 1
            li a7, 93
            ecall
        ",
    );
    assert_eq!(result.unwrap(), 0x42);
}
