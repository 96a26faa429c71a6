//! Golden Rocket and atomic counters over the differential fuzzer's
//! programs.
//!
//! `tests/golden_counters.rs` pins the eight co-design kernels, which
//! never run several forms the timing models charge differently: `mulw`,
//! `divw` and the `rem*` family, CSR reads and writes (`rdcycle`
//! included), register-register RoCC forms without `xs1`/`xs2`/`xd`, and
//! `CLR_ALL`. The fuzzer emits all of them, so this test runs programs
//! `0..300` of the fuzzer's RoCC-enabled stream at seed 2019 on the
//! Rocket-like core and the atomic CPU and pins, per program, how the run
//! ended and every counter each model keeps.
//!
//! The per-program values are folded into one FNV-1a digest per model, so
//! a single cycle's drift anywhere turns the test red; the plain totals
//! beside each digest say roughly where. As with the kernel golden test,
//! re-blessing these values needs a CHANGES.md line naming the model
//! change.

use decimalarith::atomic_sim::{AtomicConfig, AtomicStats, AtomicTiming};
use decimalarith::codesign::framework::load_program;
use decimalarith::lockstep::fuzz::{nth_program_source, FuzzConfig};
use decimalarith::riscv_asm::assemble;
use decimalarith::riscv_sim::snapshot::fnv1a64;
use decimalarith::riscv_sim::{CpuError, Machine, TimingModel};
use decimalarith::rocc::DecimalAccelerator;
use decimalarith::rocket_sim::{RocketTiming, RunStats, TimingConfig};

const PROGRAMS: u32 = 300;

/// Per-model totals over all programs, next to the digest of every
/// program's termination and counters.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    exited: u64,
    cycles: u64,
    instret: u64,
}

const ROCKET: Golden = Golden {
    digest: 356612310974817147,
    exited: 300,
    cycles: 110034,
    instret: 28481,
};

/// Rocket-only totals beyond [`Golden`].
#[derive(Debug, PartialEq, Eq)]
struct RocketTotals {
    sw_cycles: u64,
    hw_cycles: u64,
    rocc_instructions: u64,
    stall_cycles: u64,
    icache_misses: u64,
    dcache_hits: u64,
    dcache_misses: u64,
}

const ROCKET_TOTALS: RocketTotals = RocketTotals {
    sw_cycles: 104064,
    hw_cycles: 5970,
    rocc_instructions: 505,
    stall_cycles: 124,
    icache_misses: 2168,
    dcache_hits: 540,
    dcache_misses: 747,
};

const ATOMIC: Golden = Golden {
    digest: 15733548459860766961,
    exited: 300,
    cycles: 33908,
    instret: 28481,
};

/// Atomic CPU data-memory accesses, summed over all programs.
const ATOMIC_MEM_ACCESSES: u64 = 1287;

fn fuzz_config() -> FuzzConfig {
    FuzzConfig {
        seed: 2019,
        with_rocc: true,
        ..FuzzConfig::default()
    }
}

/// Runs every program on a fresh `Machine<T>` with the decimal accelerator
/// attached and returns, per program, the run's outcome and the model's
/// counters afterwards (also after a fault, so a fault's partial charge is
/// pinned too).
fn run_all<T: TimingModel>(
    config: impl Fn() -> T::Config,
) -> Vec<(Result<i64, CpuError>, T::Stats)> {
    let fuzz = fuzz_config();
    (0..PROGRAMS)
        .map(|index| {
            let source = nth_program_source(&fuzz, index);
            let program =
                assemble(&source).unwrap_or_else(|e| panic!("fuzz program {index} assembles: {e}"));
            let mut sim = Machine::<T>::new(config());
            sim.attach_coprocessor(Box::new(DecimalAccelerator::new()));
            load_program(&mut sim.cpu, &program);
            let outcome = sim
                .run(fuzz.max_instructions)
                .map(|report| report.exit_code);
            (outcome, sim.stats())
        })
        .collect()
}

/// Folds every program's outcome and counters into one digest.
fn digest<S: std::fmt::Debug>(runs: &[(Result<i64, CpuError>, S)]) -> u64 {
    let mut text = String::new();
    for (index, (outcome, stats)) in runs.iter().enumerate() {
        text.push_str(&format!("{index} {outcome:?} {stats:?}\n"));
    }
    fnv1a64(text.as_bytes())
}

fn exited<S>(runs: &[(Result<i64, CpuError>, S)]) -> u64 {
    runs.iter().filter(|(outcome, _)| outcome.is_ok()).count() as u64
}

#[test]
fn rocket_counters_over_fuzz_programs_are_pinned() {
    let runs = run_all::<RocketTiming>(TimingConfig::default);
    let sum = |field: fn(&RunStats) -> u64| runs.iter().map(|(_, stats)| field(stats)).sum();
    let golden = Golden {
        digest: digest(&runs),
        exited: exited(&runs),
        cycles: sum(|s| s.cycles),
        instret: sum(|s| s.instret),
    };
    let totals = RocketTotals {
        sw_cycles: sum(|s| s.sw_cycles),
        hw_cycles: sum(|s| s.hw_cycles),
        rocc_instructions: sum(|s| s.rocc_instructions),
        stall_cycles: sum(|s| s.stall_cycles),
        icache_misses: sum(|s| s.icache.misses),
        dcache_hits: sum(|s| s.dcache.hits),
        dcache_misses: sum(|s| s.dcache.misses),
    };
    assert_eq!(golden, ROCKET);
    assert_eq!(totals, ROCKET_TOTALS);
}

#[test]
fn atomic_counters_over_fuzz_programs_are_pinned() {
    let runs = run_all::<AtomicTiming>(AtomicConfig::default);
    let sum = |field: fn(&AtomicStats) -> u64| runs.iter().map(|(_, stats)| field(stats)).sum();
    let golden = Golden {
        digest: digest(&runs),
        exited: exited(&runs),
        cycles: sum(|s| s.cycles),
        instret: sum(|s| s.instret),
    };
    let mem_accesses = sum(|s| s.mem_accesses);
    assert_eq!(golden, ATOMIC);
    assert_eq!(mem_accesses, ATOMIC_MEM_ACCESSES);
}
