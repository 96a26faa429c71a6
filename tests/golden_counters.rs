//! Golden guest counters: the exact instruction, cycle, stall and cache
//! counts every kernel produces on all three simulators at seed 2019, plus
//! the Table IV and Table VI rows built from those runs.
//!
//! Guest counters are deterministic, so any change to them is a change to
//! a model, not noise. A refactor or a fast path that drifts by a single
//! cycle turns this test red. Re-blessing the values is a deliberate act:
//! the commit that does it must say in CHANGES.md which model changed and
//! why.
//!
//! The platforms are configured exactly as the paper tables are: the
//! Rocket-like core with its default timing and cache-replacement seed
//! 2019, and the atomic CPU with Minor-CPU-like functional-unit latencies
//! (IntMult 3, IntDiv 12).

use decimalarith::atomic_sim::AtomicConfig;
use decimalarith::codesign::framework::{
    build_guest, try_run_atomic, try_run_functional, try_run_rocket,
};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::codesign::report::{table4, time_table, Table4Row};
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::{generate, TestConfig};

const SEED: u64 = 2019;
const SAMPLES: usize = 64;

/// Every pinned counter of one kernel's three runs.
#[derive(Debug, PartialEq)]
struct Counters {
    kind: KernelKind,
    // Functional (Spike-role) core.
    functional_instret: u64,
    degraded: Option<u64>,
    // Rocket-like core.
    cycles: u64,
    sw_cycles: u64,
    hw_cycles: u64,
    rocket_instret: u64,
    rocc_instructions: u64,
    stall_cycles: u64,
    icache_hits: u64,
    icache_misses: u64,
    dcache_hits: u64,
    dcache_misses: u64,
    avg_total_cycles: f64,
    avg_hw_cycles: f64,
    // Gem5-atomic-like CPU.
    atomic_instret: u64,
    simulated_seconds: f64,
}

const GOLDEN: [Counters; 8] = [
    Counters {
        kind: KernelKind::Software,
        functional_instret: 94594,
        degraded: None,
        cycles: 168527,
        sw_cycles: 168527,
        hw_cycles: 0,
        rocket_instret: 94594,
        rocc_instructions: 0,
        stall_cycles: 25313,
        icache_hits: 94558,
        icache_misses: 35,
        dcache_hits: 14240,
        dcache_misses: 99,
        avg_total_cycles: 2632.71875,
        avg_hw_cycles: 0.0,
        atomic_instret: 94594,
        simulated_seconds: 0.000151268,
    },
    Counters {
        kind: KernelKind::SoftwareBid,
        functional_instret: 26622,
        degraded: None,
        cycles: 72091,
        sw_cycles: 72091,
        hw_cycles: 0,
        rocket_instret: 26622,
        rocc_instructions: 0,
        stall_cycles: 3233,
        icache_hits: 26595,
        icache_misses: 26,
        dcache_hits: 3619,
        dcache_misses: 96,
        avg_total_cycles: 1125.90625,
        avg_hw_cycles: 0.0,
        atomic_instret: 26622,
        simulated_seconds: 4.5408e-5,
    },
    Counters {
        kind: KernelKind::Method1,
        functional_instret: 39004,
        degraded: None,
        cycles: 59263,
        sw_cycles: 46919,
        hw_cycles: 12344,
        rocket_instret: 39004,
        rocc_instructions: 3086,
        stall_cycles: 895,
        icache_hits: 38978,
        icache_misses: 25,
        dcache_hits: 6610,
        dcache_misses: 109,
        avg_total_cycles: 925.46875,
        avg_hw_cycles: 192.875,
        atomic_instret: 39004,
        simulated_seconds: 4.8796e-5,
    },
    Counters {
        kind: KernelKind::Method1Dummy,
        functional_instret: 51097,
        degraded: None,
        cycles: 71855,
        sw_cycles: 71855,
        hw_cycles: 0,
        rocket_instret: 51097,
        rocc_instructions: 0,
        stall_cycles: 960,
        icache_hits: 51073,
        icache_misses: 23,
        dcache_hits: 6722,
        dcache_misses: 62,
        avg_total_cycles: 1122.21875,
        avg_hw_cycles: 0.0,
        atomic_instret: 51097,
        simulated_seconds: 5.7868e-5,
    },
    Counters {
        kind: KernelKind::Method1Ft,
        functional_instret: 78043,
        degraded: Some(0),
        cycles: 131900,
        sw_cycles: 119208,
        hw_cycles: 12692,
        rocket_instret: 78043,
        rocc_instructions: 3200,
        stall_cycles: 1023,
        icache_hits: 78010,
        icache_misses: 32,
        dcache_hits: 6965,
        dcache_misses: 109,
        avg_total_cycles: 2060.421875,
        avg_hw_cycles: 198.3125,
        atomic_instret: 78043,
        simulated_seconds: 9.5408e-5,
    },
    Counters {
        kind: KernelKind::Method2,
        functional_instret: 25308,
        degraded: None,
        cycles: 38959,
        sw_cycles: 33507,
        hw_cycles: 5452,
        rocket_instret: 25308,
        rocc_instructions: 1806,
        stall_cycles: 895,
        icache_hits: 25283,
        icache_misses: 24,
        dcache_hits: 2261,
        dcache_misses: 106,
        avg_total_cycles: 608.21875,
        avg_hw_cycles: 85.1875,
        atomic_instret: 25308,
        simulated_seconds: 3.1004e-5,
    },
    Counters {
        kind: KernelKind::Method3,
        functional_instret: 24796,
        degraded: None,
        cycles: 37403,
        sw_cycles: 33487,
        hw_cycles: 3916,
        rocket_instret: 24796,
        rocc_instructions: 1294,
        stall_cycles: 895,
        icache_hits: 24772,
        icache_misses: 23,
        dcache_hits: 2261,
        dcache_misses: 106,
        avg_total_cycles: 583.90625,
        avg_hw_cycles: 61.1875,
        atomic_instret: 24796,
        simulated_seconds: 2.9468e-5,
    },
    Counters {
        kind: KernelKind::Method4,
        functional_instret: 19740,
        degraded: None,
        cycles: 29595,
        sw_cycles: 27427,
        hw_cycles: 2168,
        rocket_instret: 19740,
        rocc_instructions: 398,
        stall_cycles: 895,
        icache_hits: 19716,
        icache_misses: 23,
        dcache_hits: 2261,
        dcache_misses: 106,
        avg_total_cycles: 461.90625,
        avg_hw_cycles: 33.875,
        atomic_instret: 19740,
        simulated_seconds: 2.358e-5,
    },
];

const TABLE_IV: &str = "\
Table IV: Average number of cycles (cycle-accurate, Software (decNumber-style) baseline total 2633)
Configuration                  SW part   HW part     Total   Speedup
Software (decNumber-style)        2633         0      2633     1.00x
Software (BID-style)              1126         0      1126     2.34x
Method-1                           733       193       925     2.84x
Method-1 (dummy functions)        1122         0      1122     2.35x
Method-1 (fault-tolerant)         1862       198      2060     1.28x
Method-2                           523        85       608     4.33x
Method-3                           523        61       584     4.51x
Method-4                           428        34       462     5.70x
";

const TABLE_VI: &str = "\
Table VI: atomic CPU, simulated seconds
Configuration                        Time (sec)   Speedup
Software (decNumber-style)             0.000151     1.00x
Software (BID-style)                   0.000045     3.33x
Method-1                               0.000049     3.10x
Method-1 (dummy functions)             0.000058     2.61x
Method-1 (fault-tolerant)              0.000095     1.59x
Method-2                               0.000031     4.88x
Method-3                               0.000029     5.13x
Method-4                               0.000024     6.42x
";

#[test]
fn guest_counters_and_paper_tables_match_the_golden_values() {
    let vectors = generate(&TestConfig {
        count: SAMPLES,
        seed: SEED,
        ..TestConfig::default()
    });
    let timing = TimingConfig {
        seed: SEED,
        ..TimingConfig::default()
    };
    let atomic = AtomicConfig {
        mul_cycles: 3,
        div_cycles: 12,
        ..AtomicConfig::default()
    };
    let mut table4_rows = Vec::new();
    let mut table6_rows = Vec::new();
    for golden in &GOLDEN {
        let kind = golden.kind;
        let guest = build_guest(kind, &vectors, 1).expect("kernel assembles");
        let functional = try_run_functional(&guest).expect("functional run");
        let rocket = try_run_rocket(&guest, timing).expect("rocket run");
        let atomic = try_run_atomic(&guest, atomic).expect("atomic run");
        let stats = rocket.stats;
        let got = Counters {
            kind,
            functional_instret: functional.instret,
            degraded: functional.degraded,
            cycles: stats.cycles,
            sw_cycles: stats.sw_cycles,
            hw_cycles: stats.hw_cycles,
            rocket_instret: stats.instret,
            rocc_instructions: stats.rocc_instructions,
            stall_cycles: stats.stall_cycles,
            icache_hits: stats.icache.hits,
            icache_misses: stats.icache.misses,
            dcache_hits: stats.dcache.hits,
            dcache_misses: stats.dcache.misses,
            avg_total_cycles: rocket.avg_total_cycles,
            avg_hw_cycles: rocket.avg_hw_cycles,
            atomic_instret: atomic.instret,
            simulated_seconds: atomic.simulated_seconds,
        };
        assert_eq!(&got, golden, "{kind}: guest counters moved");
        table4_rows.push(Table4Row::from_eval(kind, &rocket));
        table6_rows.push((kind.name().to_string(), atomic.simulated_seconds));
    }
    assert_eq!(table4(&table4_rows, &table4_rows[0]), TABLE_IV);
    assert_eq!(
        time_table(
            "Table VI: atomic CPU, simulated seconds",
            "Time (sec)",
            &table6_rows,
            0
        ),
        TABLE_VI
    );
}
