//! End-to-end and per-layer benchmark of the decimal co-design simulators.
//!
//! ```text
//! perfbench --workload <paper_tables|conformance|churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload runs as a closed loop on one thread: every case starts
//! when the previous one has been checked. Passes repeat until `--seconds`
//! have elapsed and the medians are reported. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics of a traced pass plus its probes. See README.md.

mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use codesign::kernels::KernelKind;

use crate::probes::Probes;
use crate::trace::Tracer;
use crate::workloads::{Checks, Pass, Workload, PAPER_METRICS};

/// The layers spans are charged to: one per crate the benchmark calls.
const LAYERS: [&str; 10] = [
    "testgen",
    "codesign",
    "riscv_asm",
    "riscv_isa",
    "riscv_sim",
    "rocket_sim",
    "atomic_sim",
    "rocc",
    "decnum",
    "lockstep",
];

/// Host seconds one reference slice takes at the reference host speed.
/// Timings are scaled by `REF_SLICE_S / median slice of the pass`, so that
/// a pass run while the shared host was slow reads as it would at the
/// reference speed. Fixed: changing it rescales every recorded number.
const REF_SLICE_S: f64 = 1.0e-3;

/// Fewest passes per run, so the determinism guard always has a repeat.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2019),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median; 0 for an empty set.
fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n.is_multiple_of(2) => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        n => sorted[n / 2],
    }
}

/// Nearest-rank percentile; 0 for an empty set.
fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident memory of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every deterministic guest value of every pass must equal the first
/// pass's; a drift is a failed check named after the value.
fn determinism_guard(passes: &[&Pass], checks: &mut Checks) {
    let Some((first, rest)) = passes.split_first() else {
        return;
    };
    for (repeat, pass) in rest.iter().enumerate() {
        checks.check(pass.guest.len() == first.guest.len(), || {
            format!("repeat {}: guest value set changed", repeat + 1)
        });
        for (name, value) in &first.guest {
            let again = pass.guest.get(name);
            checks.check(again.map(|v| v.to_bits()) == Some(value.to_bits()), || {
                format!(
                    "determinism: {name} was {value}, repeat {} gave {again:?}",
                    repeat + 1
                )
            });
        }
    }
}

/// Each pass's host speed relative to the reference: `REF_SLICE_S` over
/// the median of the reference slices it ran (the run's median when a pass
/// ran none).
fn host_speeds(passes: &[Pass]) -> Vec<f64> {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.slices.iter().copied())
        .collect();
    let fallback = if all.is_empty() {
        1.0
    } else {
        REF_SLICE_S / median(&all)
    };
    passes
        .iter()
        .map(|p| {
            if p.slices.is_empty() {
                fallback
            } else {
                REF_SLICE_S / median(&p.slices)
            }
        })
        .collect()
}

/// A metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

fn push(metrics: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    metrics.push((name.into(), unit, value));
}

/// The untraced run: passes until `seconds` elapse, medians reported.
fn untraced(args: &Args, scratch: &Path) -> (Vec<Metric>, Checks, BTreeMap<&'static str, String>) {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let pass = args
            .workload
            .pass(args.seed, &mut Tracer::new(false), scratch);
        passes.push(pass.shed());
    }
    let mut checks = Checks::default();
    determinism_guard(&passes.iter().collect::<Vec<_>>(), &mut checks);
    let speeds = host_speeds(&passes);
    let per_pass = |f: &dyn Fn(&Pass, f64) -> f64| {
        median(
            &passes
                .iter()
                .zip(&speeds)
                .map(|(p, &speed)| f(p, speed))
                .collect::<Vec<_>>(),
        )
    };
    let mut metrics = Vec::new();
    push(
        &mut metrics,
        "wall_s",
        "s",
        per_pass(&|p, speed| p.wall_s * speed),
    );
    push(
        &mut metrics,
        "setup_s",
        "s",
        per_pass(&|p, speed| p.setup_s * speed),
    );
    push(
        &mut metrics,
        "sim_mips",
        "MIPS",
        per_pass(&|p, speed| p.retired as f64 / (p.sim_s * speed) / 1e6),
    );
    push(
        &mut metrics,
        "cases_per_s",
        "1/s",
        per_pass(&|p, speed| p.cases as f64 / (p.wall_s * speed)),
    );
    push(&mut metrics, "peak_rss_mb", "MB", peak_rss_mb());
    // Outside the timed passes, after the peak memory is read.
    let (paper, table_checks) = workloads::table_iv(args.seed);
    checks.absorb(table_checks);
    checks.check(paper.is_some(), || "Table IV metrics missing".to_string());
    let paper = paper.unwrap_or([0.0; PAPER_METRICS.len()]);
    for ((name, unit), value) in PAPER_METRICS
        .into_iter()
        .zip(["cycles", "x", "%", "%"])
        .zip(paper)
    {
        push(&mut metrics, name, unit, value);
    }
    let mut info = BTreeMap::new();
    info.insert(
        "raw_wall_s",
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()).to_string(),
    );
    info.insert("host_speed", median(&speeds).to_string());
    let speeds_text: Vec<String> = speeds.iter().map(|s| format!("{s:.4}")).collect();
    info.insert("pass_host_speed", speeds_text.join(" "));
    info.insert("passes", passes.len().to_string());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.wall_s)).collect();
    info.insert("pass_wall_s", walls.join(" "));
    info.insert("cases_per_pass", passes[0].cases.to_string());
    info.insert("retired_per_pass", passes[0].retired.to_string());
    for pass in passes {
        checks.absorb(pass.checks);
    }
    (metrics, checks, info)
}

/// Per-kernel and per-layer metrics of the traced run.
fn layer_metrics(
    workload: Workload,
    tracer: &Tracer,
    main: &Pass,
    probes: &Probes,
    main_spans: usize,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let all_spans = tracer.spans().len();
    push(
        &mut metrics,
        "testgen.generate_s",
        "s",
        tracer.total("testgen::generate", main_spans),
    );
    push(
        &mut metrics,
        "codesign.build_guest_s",
        "s",
        tracer.total("build_guest", main_spans),
    );
    push(
        &mut metrics,
        "codesign.verify_s",
        "s",
        tracer.total("verify_results", all_spans),
    );
    let assemble_s = tracer.total("assemble", all_spans);
    push(&mut metrics, "riscv_asm.assemble_s", "s", assemble_s);
    push(
        &mut metrics,
        "riscv_asm.kwords_per_s",
        "kwords/s",
        probes.assembled_words as f64 / 1e3 / assemble_s,
    );
    push(&mut metrics, "riscv_isa.decode_ns", "ns", probes.decode_ns);
    push(
        &mut metrics,
        "riscv_sim.read_u32_ns",
        "ns",
        probes.read_u32_ns,
    );
    push(&mut metrics, "riscv_sim.load_us", "us", probes.load_us);

    let standalone = if workload == Workload::PaperTables {
        &main.standalone
    } else {
        &probes.pass.standalone
    };
    let guest = if workload == Workload::PaperTables {
        &main.guest
    } else {
        &probes.pass.guest
    };
    let value = |name: String| guest.get(&name).copied().unwrap_or(0.0);
    for kind in KernelKind::ALL {
        let slug = kind.slug();
        let run = standalone.iter().find(|r| r.kind == kind);
        let ratio =
            |f: &dyn Fn(&workloads::KernelRuns) -> f64| run.map_or(0.0, |r| f(r) / r.functional_s);
        push(
            &mut metrics,
            format!("riscv_sim.mips.{slug}"),
            "MIPS",
            ratio(&|r| r.instret as f64 / 1e6),
        );
        push(
            &mut metrics,
            format!("riscv_sim.instret.{slug}"),
            "count",
            value(format!("instret.{slug}")),
        );
        push(
            &mut metrics,
            format!("rocket_sim.overhead.{slug}"),
            "x",
            ratio(&|r| r.rocket_s),
        );
        for (name, unit) in [
            ("cycles_per_mul", "cycles"),
            ("hw_cycles_per_mul", "cycles"),
            ("stall_cycles", "cycles"),
            ("icache_misses", "count"),
            ("dcache_misses", "count"),
        ] {
            push(
                &mut metrics,
                format!("rocket_sim.{name}.{slug}"),
                unit,
                value(format!("rocket.{name}.{slug}")),
            );
        }
        push(
            &mut metrics,
            format!("atomic_sim.overhead.{slug}"),
            "x",
            ratio(&|r| r.atomic_s),
        );
        if kind.uses_accelerator() {
            push(
                &mut metrics,
                format!("rocc.commands.{slug}"),
                "count",
                value(format!("rocket.rocc_commands.{slug}")),
            );
        }
    }
    for slug in ["software", "method1_dummy"] {
        push(
            &mut metrics,
            format!("atomic_sim.sim_s.{slug}"),
            "s",
            value(format!("atomic.sim_s.{slug}")),
        );
    }
    push(&mut metrics, "rocc.cmd_ns", "ns", probes.rocc_cmd_ns);

    let native = main.native.as_ref().or(probes.pass.native.as_ref());
    let per_mul = |f: &dyn Fn(&workloads::NativeStats) -> f64| {
        native.map_or(0.0, |n| f(n) * 1e9 / n.multiplications as f64)
    };
    push(
        &mut metrics,
        "decnum.native_ns.software",
        "ns",
        per_mul(&|n| n.software_s),
    );
    push(
        &mut metrics,
        "decnum.native_ns.method1_dummy",
        "ns",
        per_mul(&|n| n.method1_dummy_s),
    );

    // Pairs are compared with the standalone runs of the same guests.
    let pairs = if workload == Workload::Conformance {
        &main.pairs
    } else {
        &probes.pass.pairs
    };
    let alone = |kind: KernelKind, sim: lockstep::SimKind| {
        probes
            .pass
            .standalone
            .iter()
            .find(|r| r.kind == kind)
            .map_or(0.0, |r| match sim {
                lockstep::SimKind::Functional => r.functional_s,
                lockstep::SimKind::Rocket => r.rocket_s,
                lockstep::SimKind::Atomic => r.atomic_s,
            })
    };
    let pair_s: f64 = pairs.iter().map(|p| p.seconds).sum();
    let alone_s: f64 = pairs
        .iter()
        .map(|p| alone(p.kind, p.pair.a) + alone(p.kind, p.pair.b))
        .sum();
    let steps: u64 = pairs.iter().map(|p| p.steps).sum();
    push(
        &mut metrics,
        "lockstep.compare_overhead",
        "x",
        pair_s / alone_s,
    );
    push(
        &mut metrics,
        "lockstep.step_ns",
        "ns",
        pair_s * 1e9 / steps.max(1) as f64,
    );

    let campaign = main.campaign.as_ref().or(probes.pass.campaign.as_ref());
    let fuzz = main.fuzz.as_ref().or(probes.pass.fuzz.as_ref());
    let campaign_value = |f: &dyn Fn(&workloads::CampaignStats) -> f64| campaign.map_or(0.0, f);
    push(
        &mut metrics,
        "lockstep.replays_per_s",
        "1/s",
        campaign_value(&|c| c.replays as f64 / c.seconds),
    );
    push(
        &mut metrics,
        "lockstep.replay_us_p50",
        "us",
        campaign_value(&|c| median(&c.replay_us)),
    );
    push(
        &mut metrics,
        "lockstep.replay_us_p99",
        "us",
        campaign_value(&|c| percentile(&c.replay_us, 99.0)),
    );
    push(
        &mut metrics,
        "lockstep.fuzz_programs_per_s",
        "1/s",
        fuzz.map_or(0.0, |f| f.programs as f64 / f.seconds),
    );
    push(
        &mut metrics,
        "lockstep.journal_append_us",
        "us",
        probes.journal_append_us,
    );
    push(
        &mut metrics,
        "lockstep.sdc.method1",
        "count",
        campaign_value(&|c| c.sdc_method1 as f64),
    );
    push(
        &mut metrics,
        "lockstep.sdc.method1_ft",
        "count",
        campaign_value(&|c| c.sdc_method1_ft as f64),
    );
    push(
        &mut metrics,
        "lockstep.quarantined",
        "count",
        campaign_value(&|c| c.quarantined as f64),
    );
    metrics
}

/// The traced run: untraced and traced passes alternate until `seconds`
/// elapse; the last traced pass and the probes after it give the spans.
fn traced(args: &Args, scratch: &Path) -> (Vec<Metric>, Checks, BTreeMap<&'static str, String>) {
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(true);
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass = args
            .workload
            .pass(args.seed, &mut Tracer::new(false), scratch);
        untraced.push(pass.shed());
        if let Some(previous) = traced.pop() {
            traced.push(Pass::shed(previous));
        }
        tracer = Tracer::new(true);
        traced.push(args.workload.pass(args.seed, &mut tracer, scratch));
    }
    let main = traced.last().expect("at least one traced pass");
    let main_spans = tracer.spans().len();
    let probe_start = Instant::now();
    let slices_before = tracer.slice_time();
    let probes = probes::run(args.workload, args.seed, &mut tracer, main, scratch);
    let probe_wall = probe_start.elapsed() - (tracer.slice_time() - slices_before);
    let traced_wall = main.wall_s + probe_wall.as_secs_f64();

    let mut checks = Checks::default();
    let all: Vec<&Pass> = untraced.iter().chain(traced.iter()).collect();
    determinism_guard(&all, &mut checks);
    let mut metrics = Vec::new();
    let self_seconds = tracer.self_seconds();
    for layer in LAYERS {
        let seconds = self_seconds.get(layer).copied().unwrap_or(0.0);
        push(&mut metrics, format!("self_s.{layer}"), "s", seconds);
    }
    let unattributed = traced_wall - tracer.root_seconds();
    push(&mut metrics, "trace.wall_s", "s", traced_wall);
    push(&mut metrics, "trace.unattributed_s", "s", unattributed);
    push(
        &mut metrics,
        "trace.unattributed_pct",
        "%",
        100.0 * unattributed / traced_wall,
    );
    push(
        &mut metrics,
        "trace.spans",
        "count",
        tracer.spans().len() as f64,
    );
    let scaled_wall = |passes: &[Pass]| {
        let speeds = host_speeds(passes);
        median(
            &passes
                .iter()
                .zip(speeds)
                .map(|(p, speed)| p.wall_s * speed)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_wall = scaled_wall(&untraced);
    let traced_pass_wall = scaled_wall(&traced);
    push(
        &mut metrics,
        "trace_overhead_pct",
        "%",
        100.0 * (traced_pass_wall - untraced_wall) / untraced_wall,
    );
    metrics.extend(layer_metrics(
        args.workload,
        &tracer,
        main,
        &probes,
        main_spans,
    ));

    let path = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perfbench-traces")
        .join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    checks.check(tracer.write(&path).is_ok(), || {
        format!("cannot write {}", path.display())
    });
    let mut info = BTreeMap::new();
    info.insert(
        "passes",
        format!("{} untraced + {} traced", untraced.len(), traced.len()),
    );
    info.insert("cases_per_pass", main.cases.to_string());
    info.insert("spans_file", path.display().to_string());
    checks.absorb(probes.pass.checks);
    for pass in untraced.into_iter().chain(traced) {
        checks.absorb(pass.checks);
    }
    (metrics, checks, info)
}

/// The commit, read from `.git` without running git; "unknown" outside a
/// git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_tables|conformance|churn> --seed N \
                 --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join(format!("perfbench-scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let (mut metrics, mut checks, mut info) = if args.trace {
        traced(&args, &scratch)
    } else {
        untraced(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for (name, _, value) in &metrics {
        checks.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
    let failed = checks.failures.len() as u64;
    for failure in &checks.failures {
        eprintln!("FAILED: {failure}");
    }
    let error_rate = failed as f64 / checks.attempted.max(1) as f64;
    if args.trace {
        push(&mut metrics, "checks.error_rate", "ratio", error_rate);
    }

    info.insert("workload", args.workload.name().to_string());
    info.insert("seed", args.seed.to_string());
    info.insert("samples", args.workload.samples().to_string());
    info.insert("trace", u8::from(args.trace).to_string());
    info.insert("git_rev", git_rev());
    info.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, usize::from)
            .to_string(),
    );
    info.insert("rustc", rustc_version());
    info.insert(
        "l1_caches",
        "empty at the start of every guest run".to_string(),
    );
    info.insert("error_rate", error_rate.to_string());
    let mut report = String::from("{\"provenance\": {");
    for (i, (key, value)) in info.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(report, "{sep}{}: {}", json_string(key), json_string(value));
    }
    report.push_str("}}");
    println!("{report}");
    for (name, unit, value) in &metrics {
        eprintln!("{name:<40} {value:>16.6} {unit}");
    }

    let mut result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        checks.attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            result,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }
    result.push_str("}}");
    println!("{result}");
    ExitCode::SUCCESS
}
