//! Table IV bench: regenerates the cycle-accurate SW/HW split for the
//! evaluated configurations, and benchmarks the simulator's wall-clock
//! throughput while doing so.
//!
//! The cycle numbers themselves are deterministic (they come from the
//! modelled core, not from host timing); they are printed once at startup
//! so a `cargo bench` run leaves the Table IV data in its log.

use codesign::kernels::KernelKind;
use codesign::report;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decimal_bench::{rocket_timing, try_evaluate_cycles, workload};

const BENCH_SAMPLES: usize = 400;

fn print_table4_once() {
    let vectors = workload(BENCH_SAMPLES, 2019);
    let timing = rocket_timing(2019);
    let mut rows = Vec::new();
    let mut baseline = None;
    for kind in [
        KernelKind::Method1,
        KernelKind::Software,
        KernelKind::Method1Dummy,
        KernelKind::SoftwareBid,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ] {
        let eval = try_evaluate_cycles(kind, &vectors, timing).expect("cycle evaluation");
        let row = report::Table4Row::from_eval(kind, &eval);
        if kind == KernelKind::Software {
            baseline = Some(row.clone());
        }
        rows.push(row);
    }
    println!(
        "\n{}\n(sampled at {BENCH_SAMPLES} inputs; run the `tables` binary for the full 8,000)\n",
        report::table4(&rows, &baseline.expect("software row"))
    );
}

fn bench(c: &mut Criterion) {
    print_table4_once();
    let vectors = workload(100, 7);
    let timing = rocket_timing(7);
    let mut group = c.benchmark_group("table4_simulation_throughput");
    group.sample_size(10);
    for kind in [KernelKind::Software, KernelKind::Method1] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                black_box(try_evaluate_cycles(kind, &vectors, timing).expect("cycle evaluation"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
