//! Building, loading and pairing simulators for lockstep runs — over raw
//! assembled programs (the fuzzer's case) and over the evaluation
//! framework's guest programs (the conformance case).

use atomic_sim::{AtomicConfig, AtomicSim, AtomicTiming};
use codesign::framework::GuestProgram;
pub use codesign::framework::{guest_budget, load_program};
use codesign::kernels::KernelKind;
use riscv_asm::Program;
use riscv_sim::{Machine, TimingModel};
use rocc::DecimalAccelerator;
use rocket_sim::{RocketSim, RocketTiming, TimingConfig};
use testgen::TestVector;

use crate::compare::{run_lockstep, LockstepOptions, LockstepOutcome, LockstepSim};

/// Which simulator plays one side of a lockstep pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The functional (Spike-role) core.
    Functional,
    /// The cycle-accurate Rocket-like core.
    Rocket,
    /// The Gem5-`AtomicSimpleCPU`-like model.
    Atomic,
}

impl SimKind {
    /// All three simulators.
    pub const ALL: [SimKind; 3] = [SimKind::Functional, SimKind::Rocket, SimKind::Atomic];

    /// The label the simulator reports in divergence output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimKind::Functional => <()>::LABEL,
            SimKind::Rocket => RocketTiming::LABEL,
            SimKind::Atomic => AtomicTiming::LABEL,
        }
    }

    /// Builds a fresh simulator of this kind, with the decimal accelerator
    /// attached when `with_accelerator` is set.
    #[must_use]
    pub fn build(self, with_accelerator: bool) -> Box<dyn LockstepSim> {
        let mut sim: Box<dyn LockstepSim> = match self {
            SimKind::Functional => Box::new(Machine::<()>::new(())),
            SimKind::Rocket => Box::new(RocketSim::new(TimingConfig::default())),
            SimKind::Atomic => Box::new(AtomicSim::new(AtomicConfig::default())),
        };
        if with_accelerator {
            sim.cpu_mut()
                .attach_coprocessor(Box::new(DecimalAccelerator::new()));
        }
        sim
    }
}

impl std::fmt::Display for SimKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// An ordered pair of simulators to run in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// The first side.
    pub a: SimKind,
    /// The second side.
    pub b: SimKind,
}

impl Pair {
    /// The three distinct pairs over the three simulators.
    pub const ALL: [Pair; 3] = [
        Pair { a: SimKind::Functional, b: SimKind::Rocket },
        Pair { a: SimKind::Functional, b: SimKind::Atomic },
        Pair { a: SimKind::Rocket, b: SimKind::Atomic },
    ];
}

impl std::fmt::Display for Pair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vs {}", self.a, self.b)
    }
}

/// Runs one assembled program on a pair of fresh simulators in lockstep.
#[must_use]
pub fn run_program_pair(
    program: &Program,
    pair: Pair,
    with_accelerator: bool,
    options: &LockstepOptions,
) -> LockstepOutcome {
    let mut a = pair.a.build(with_accelerator);
    let mut b = pair.b.build(with_accelerator);
    load_program(a.cpu_mut(), program);
    load_program(b.cpu_mut(), program);
    run_lockstep(a.as_mut(), b.as_mut(), options)
}

/// Runs an evaluation-framework guest on a pair of simulators in lockstep,
/// with the decimal accelerator attached on both sides (exactly as the
/// framework's own runners attach it).
#[must_use]
pub fn run_guest_pair(guest: &GuestProgram, pair: Pair, context: usize) -> LockstepOutcome {
    let options = LockstepOptions {
        max_instructions: guest_budget(guest),
        context,
        compare_final_state: true,
    };
    run_program_pair(&guest.program, pair, true, &options)
}

/// Builds the guest for `kind` over `vectors` and lockstep-checks it on
/// every simulator pair, returning the first divergence (if any) with the
/// pair it occurred on.
///
/// # Panics
///
/// Panics if the kernel emitter produces unassemblable source (a framework
/// bug, identical to how the framework's own runners treat it).
#[must_use]
pub fn check_kernel_all_pairs(
    kind: KernelKind,
    vectors: &[TestVector],
) -> Option<(Pair, LockstepOutcome)> {
    let guest = codesign::framework::build_guest(kind, vectors, 1)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    for pair in Pair::ALL {
        let outcome = run_guest_pair(&guest, pair, crate::compare::DEFAULT_CONTEXT);
        if !outcome.is_agreement() {
            return Some((pair, outcome));
        }
    }
    None
}
