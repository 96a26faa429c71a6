//! Table VI bench: the Gem5-like atomic-CPU evaluation (simulated seconds
//! for software vs dummy), plus simulator throughput measurement.

use codesign::framework::try_run_atomic;
use codesign::kernels::KernelKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decimal_bench::{atomic_config, try_guest_for, workload};

fn bench(c: &mut Criterion) {
    let vectors = workload(400, 2019);
    let config = atomic_config();
    let mut simulated = Vec::new();
    for kind in [KernelKind::Software, KernelKind::Method1Dummy] {
        let guest = try_guest_for(kind, &vectors).expect("guest builds");
        let eval = try_run_atomic(&guest, config).expect("atomic run");
        simulated.push((kind.name(), eval.simulated_seconds));
    }
    println!(
        "\nTable VI (sampled): software {:.6} s, dummy {:.6} s, speedup {:.2}x\n",
        simulated[0].1,
        simulated[1].1,
        simulated[0].1 / simulated[1].1
    );

    let mut group = c.benchmark_group("table6_simulation_throughput");
    group.sample_size(10);
    let small = workload(100, 5);
    for kind in [KernelKind::Software, KernelKind::Method1Dummy] {
        let guest = try_guest_for(kind, &small).expect("guest builds");
        group.bench_function(kind.name(), |b| {
            b.iter(|| black_box(try_run_atomic(&guest, config).expect("atomic run")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
