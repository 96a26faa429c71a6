//! Snapshot/restore equivalence: running a guest to an arbitrary point,
//! serializing the machine, and restoring the bytes into a *fresh*
//! machine must continue the run bit-for-bit — the retirement stream,
//! the exit code, and the final architectural snapshot all match an
//! uninterrupted reference run. This holds on all three simulators for
//! every registered kernel, which is what makes crash-safe campaign
//! resumption trustworthy.
//!
//! The serialized format itself is also checked: a snapshot with a bumped
//! version byte, a corrupted payload, the wrong simulator kind, or
//! coprocessor state restored into an accelerator-less core must each
//! fail with the matching typed [`SnapshotError`], never garbage state.

use std::cell::RefCell;
use std::rc::Rc;

use decimalarith::atomic_sim::AtomicTiming;
use decimalarith::codesign::framework::build_guest;
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::{guest_budget, load_program, SimKind};
use decimalarith::riscv_sim::{Cpu, Event, Machine, SnapshotError, TimingModel, SNAPSHOT_VERSION};
use decimalarith::rocc::DecimalAccelerator;
use decimalarith::rocket_sim::RocketTiming;
use decimalarith::testgen::{generate, TestConfig};
use proptest::prelude::*;

/// A fresh machine with timing model `T` in its default configuration and
/// the decimal accelerator attached.
fn machine<T: TimingModel>() -> Machine<T>
where
    T::Config: Default,
{
    let mut sim = Machine::<T>::default();
    sim.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    sim
}

/// Records the machine's retirement stream, one rendered record per line.
fn observe<T: TimingModel>(sim: &mut Machine<T>, stream: &Rc<RefCell<Vec<String>>>) {
    let stream = Rc::clone(stream);
    sim.set_retire_observer(move |record| stream.borrow_mut().push(record.to_string()));
}

/// Steps until the guest exits, returning the exit code and step count.
fn run_to_exit<T: TimingModel>(sim: &mut Machine<T>, budget: u64) -> (i64, u64) {
    let mut steps = 0;
    loop {
        assert!(steps < budget, "guest did not exit within the step budget");
        steps += 1;
        match sim.step() {
            Ok(Event::Exited { code }) => return (code, steps),
            Ok(_) => {}
            Err(e) => panic!("unexpected fault after {steps} steps: {e}"),
        }
    }
}

/// Steps exactly `n` times, asserting the guest does not exit early.
fn run_steps<T: TimingModel>(sim: &mut Machine<T>, n: u64) {
    for step in 0..n {
        match sim.step() {
            Ok(Event::Exited { .. }) => panic!("guest exited early at step {step}"),
            Ok(_) => {}
            Err(e) => panic!("unexpected fault at step {step}: {e}"),
        }
    }
}

/// The core equivalence check: reference run vs. snapshot at
/// `numer/denom` of the way through, serialized, restored into a fresh
/// machine, and continued.
fn check_split<T: TimingModel>(kernel: KernelKind, numer: u64, denom: u64)
where
    T::Config: Default,
{
    let label = T::LABEL;
    let vectors = generate(&TestConfig {
        count: 1,
        seed: 2019,
        ..TestConfig::default()
    });
    let guest = build_guest(kernel, &vectors, 1)
        .unwrap_or_else(|e| panic!("{kernel}: failed to build guest: {e}"));
    let budget = guest_budget(&guest);

    let reference_stream = Rc::new(RefCell::new(Vec::new()));
    let mut reference = machine::<T>();
    observe(&mut reference, &reference_stream);
    load_program(&mut reference.cpu, &guest.program);
    let (reference_exit, total_steps) = run_to_exit(&mut reference, budget);
    let reference_final = reference.snapshot();
    assert!(total_steps >= 2, "guest too short to split");

    let split = (total_steps * numer / denom).clamp(1, total_steps - 1);
    let prefix_stream = Rc::new(RefCell::new(Vec::new()));
    let mut first = machine::<T>();
    observe(&mut first, &prefix_stream);
    load_program(&mut first.cpu, &guest.program);
    run_steps(&mut first, split);
    let snapshot = first.snapshot();

    // The snapshot is restored into a *fresh* machine — nothing carries
    // over except the serialized bytes.
    let suffix_stream = Rc::new(RefCell::new(Vec::new()));
    let mut second = machine::<T>();
    observe(&mut second, &suffix_stream);
    second
        .restore(&snapshot)
        .unwrap_or_else(|e| panic!("{kernel} on {label}: restore failed: {e}"));
    let (resumed_exit, suffix_steps) = run_to_exit(&mut second, budget);

    assert_eq!(
        resumed_exit, reference_exit,
        "{kernel} on {label}: exit code"
    );
    assert_eq!(
        split + suffix_steps,
        total_steps,
        "{kernel} on {label}: step count"
    );
    let mut combined = prefix_stream.borrow().clone();
    combined.extend(suffix_stream.borrow().iter().cloned());
    assert_eq!(
        combined,
        *reference_stream.borrow(),
        "{kernel} on {label}: retirement stream"
    );
    assert_eq!(
        second.snapshot(),
        reference_final,
        "{kernel} on {label}: final machine snapshot"
    );
}

/// [`check_split`] on the simulator `kind` names.
fn check_split_on(kernel: KernelKind, kind: SimKind, numer: u64, denom: u64) {
    match kind {
        SimKind::Functional => check_split::<()>(kernel, numer, denom),
        SimKind::Rocket => check_split::<RocketTiming>(kernel, numer, denom),
        SimKind::Atomic => check_split::<AtomicTiming>(kernel, numer, denom),
    }
}

#[test]
fn midpoint_snapshot_resumes_identically_on_every_sim_and_kernel() {
    for kernel in KernelKind::ALL {
        for sim_kind in SimKind::ALL {
            check_split_on(kernel, sim_kind, 1, 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_snapshot_point_resumes_identically(
        kernel_index in 0..KernelKind::ALL.len(),
        sim_index in 0..SimKind::ALL.len(),
        numer in 1u64..100,
    ) {
        check_split_on(
            KernelKind::ALL[kernel_index],
            SimKind::ALL[sim_index],
            numer,
            100,
        );
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let mut sim = machine::<()>();
    let mut bytes = sim.snapshot();
    // The envelope is `magic(4) | version(4) | ...`: byte 4 is the low
    // byte of the little-endian version word.
    bytes[4] ^= 0xFF;
    match sim.restore(&bytes) {
        Err(SnapshotError::Version { found, supported }) => {
            assert_ne!(found, supported);
        }
        other => panic!("expected SnapshotError::Version, got {other:?}"),
    }

    // Version 1 nested a sealed core snapshot inside the timing models'
    // bodies. Such an envelope is rejected up front, never misread as the
    // current single-body layout.
    assert_ne!(SNAPSHOT_VERSION, 1);
    let mut rocket = machine::<RocketTiming>();
    let mut version1 = rocket.snapshot();
    version1[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        rocket.restore(&version1),
        Err(SnapshotError::Version {
            found: 1,
            supported: SNAPSHOT_VERSION,
        })
    );
}

#[test]
fn corrupted_payload_fails_the_checksum() {
    let mut sim = machine::<AtomicTiming>();
    let mut bytes = sim.snapshot();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    match sim.restore(&bytes) {
        Err(SnapshotError::Checksum { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected SnapshotError::Checksum, got {other:?}"),
    }
}

#[test]
fn wrong_simulator_kind_is_rejected() {
    let bytes = machine::<RocketTiming>().snapshot();
    let mut atomic = machine::<AtomicTiming>();
    assert!(matches!(
        atomic.restore(&bytes),
        Err(SnapshotError::WrongKind { .. })
    ));
}

#[test]
fn coprocessor_state_needs_a_matching_coprocessor() {
    // A snapshot carrying accelerator state must not restore into a core
    // with no accelerator attached.
    let mut with_accel = Cpu::new();
    with_accel.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    let snapshot = with_accel.snapshot();
    assert!(snapshot.coproc.is_some(), "accelerator state expected in the snapshot");
    let mut bare = Cpu::new();
    assert!(matches!(
        bare.restore(&snapshot),
        Err(SnapshotError::Coprocessor { .. })
    ));
}
