//! Pareto ablation: cycles vs hardware cost across the four co-design
//! methods (the "several Pareto points" the paper's introduction motivates),
//! plus timing-parameter ablations for the design choices DESIGN.md calls
//! out (RoCC response latency, cache miss penalty).

use codesign::kernels::KernelKind;
use codesign::report;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decimal_bench::{rocket_timing, try_evaluate_cycles, workload};
use rocket_sim::TimingConfig;

fn print_pareto_once() {
    let vectors = workload(300, 2019);
    let timing = rocket_timing(2019);
    let costs = report::method_costs();
    let mut entries = Vec::new();
    for (kind, (name, gates)) in [
        KernelKind::Method1,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ]
    .into_iter()
    .zip(costs)
    {
        let eval = try_evaluate_cycles(kind, &vectors, timing).expect("cycle evaluation");
        entries.push((name, gates, eval.avg_total_cycles));
    }
    println!("\n{}", report::pareto_table(&entries));

    // Ablation: how sensitive is Method-1 to the RoCC response latency the
    // paper's §V discusses ("such an interface imposes a latency overhead")?
    println!("Ablation: Method-1 avg cycles vs RoCC response latency");
    for resp in [0u32, 2, 4, 8] {
        let timing = TimingConfig {
            rocc_resp_latency: resp,
            ..rocket_timing(2019)
        };
        let eval =
            try_evaluate_cycles(KernelKind::Method1, &vectors, timing).expect("cycle evaluation");
        println!(
            "  resp latency {resp:>2} cycles -> avg total {:>6.0}",
            eval.avg_total_cycles
        );
    }

    // Ablation: cache miss penalty (affects both configurations).
    println!("Ablation: avg cycles vs L1 miss penalty");
    for miss in [10u32, 20, 40] {
        let timing = TimingConfig {
            miss_penalty: miss,
            ..rocket_timing(2019)
        };
        let sw =
            try_evaluate_cycles(KernelKind::Software, &vectors, timing).expect("cycle evaluation");
        let m1 =
            try_evaluate_cycles(KernelKind::Method1, &vectors, timing).expect("cycle evaluation");
        println!(
            "  miss {miss:>2} -> software {:>6.0}, method-1 {:>6.0}, speedup {:.2}x",
            sw.avg_total_cycles,
            m1.avg_total_cycles,
            sw.avg_total_cycles / m1.avg_total_cycles
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_pareto_once();
    let vectors = workload(50, 11);
    let timing = rocket_timing(11);
    let mut group = c.benchmark_group("pareto_methods");
    group.sample_size(10);
    for kind in [
        KernelKind::Method1,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ] {
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
