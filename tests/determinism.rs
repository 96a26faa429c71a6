//! Determinism and the paper's §V statistical claim: cycle counts vary with
//! the cache random-replacement seed ("Rocket chip computes the number of
//! cycles nondeterministically"), but averaging over many samples gives
//! statistically meaningful results.

use decimalarith::codesign::framework::{build_guest, try_run_rocket};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::{generate, TestConfig};

fn timing(seed: u64) -> TimingConfig {
    TimingConfig {
        seed,
        ..TimingConfig::default()
    }
}

#[test]
fn same_seed_replays_exactly() {
    let vectors = generate(&TestConfig {
        count: 40,
        ..TestConfig::default()
    });
    let guest = build_guest(KernelKind::Method1, &vectors, 1).unwrap();
    let a = try_run_rocket(&guest, timing(42)).expect("rocket run");
    let b = try_run_rocket(&guest, timing(42)).expect("rocket run");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.results, b.results);
}

#[test]
fn different_seeds_change_cycles_but_not_results() {
    let vectors = generate(&TestConfig {
        count: 60,
        ..TestConfig::default()
    });
    let guest = build_guest(KernelKind::Software, &vectors, 1).unwrap();
    let runs: Vec<_> = (0..4u64)
        .map(|s| try_run_rocket(&guest, timing(s)).expect("rocket run"))
        .collect();
    // Results are architectural: identical across seeds.
    for r in &runs[1..] {
        assert_eq!(r.results, runs[0].results);
    }
    // Timing is microarchitectural: the replacement seed may move it.
    // (With warm caches the effect can be small, so only assert spread.)
    let cycles: Vec<u64> = runs.iter().map(|r| r.stats.cycles).collect();
    let min = *cycles.iter().min().unwrap() as f64;
    let max = *cycles.iter().max().unwrap() as f64;
    assert!(
        (max - min) / min < 0.05,
        "seed-induced spread should be small over a long averaged run: {cycles:?}"
    );
}

#[test]
fn averages_are_statistically_stable_across_seeds() {
    // The paper's argument: "a large numbers of input samples with many
    // repetition ... can show statistically meaningful results".
    let vectors = generate(&TestConfig {
        count: 120,
        ..TestConfig::default()
    });
    let guest = build_guest(KernelKind::Method1, &vectors, 1).unwrap();
    let averages: Vec<f64> = (0..5u64)
        .map(|s| {
            try_run_rocket(&guest, timing(s))
                .expect("rocket run")
                .avg_total_cycles
        })
        .collect();
    let mean = averages.iter().sum::<f64>() / averages.len() as f64;
    for avg in &averages {
        assert!(
            (avg - mean).abs() / mean < 0.02,
            "per-seed average {avg:.1} strays from mean {mean:.1}"
        );
    }
}

#[test]
fn workload_generation_is_a_pure_function_of_the_config() {
    let config = TestConfig {
        count: 100,
        seed: 77,
        ..TestConfig::default()
    };
    assert_eq!(generate(&config), generate(&config));
}
