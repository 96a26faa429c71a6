//! The three workloads. Each pass builds its inputs from the seed, runs
//! them through the crates' public calls one case after another, checks
//! every output, and returns what it measured.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use codesign::framework::{
    build_guest, time_native, try_run_atomic, try_run_functional, try_run_rocket, verify_results,
    AtomicEvaluation, CycleEvaluation, GuestProgram, NativeMethod,
};
use codesign::kernels::KernelKind;
use decimal_bench::{atomic_config, rocket_timing, try_evaluate_cycles, workload};
use lockstep::campaign::{run_campaign_journaled, CampaignConfig};
use lockstep::fuzz::{nth_program_source, FuzzConfig};
use lockstep::journal::JournalSpec;
use lockstep::{
    guest_budget, run_guest_pair, run_program_pair, LockstepOptions, LockstepOutcome, Pair,
    Termination, DEFAULT_CONTEXT,
};
use riscv_asm::{assemble, Program};
use testgen::TestVector;

use crate::trace::Tracer;

/// Samples in the `paper_tables` database.
pub const PAPER_SAMPLES: usize = 2_000;
/// Passes over the database per native (Table V) timing.
pub const NATIVE_REPS: u32 = 40;
/// Samples in the `conformance` database.
pub const CONFORMANCE_SAMPLES: usize = 250;
/// Samples in the fault-campaign guest of `churn`.
pub const CHURN_SAMPLES: usize = 6;
/// Faults injected per campaign kernel in `churn`.
pub const CHURN_FAULTS: usize = 400;
/// Fuzz programs per `churn` pass.
pub const CHURN_PROGRAMS: u32 = 1_500;
/// Body items per fuzz program (each item is 1–5 instructions).
pub const FUZZ_BODY_ITEMS: usize = 40;

/// Method-1's speed-up over software in the paper's Table IV (see
/// EXPERIMENTS.md).
pub const PAPER_M1_SPEEDUP: f64 = 2.73;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTables,
    Conformance,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperTables,
        Workload::Conformance,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::Conformance => "conformance",
            Workload::Churn => "churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Samples in the workload's own test database.
    pub fn samples(self) -> usize {
        match self {
            Workload::PaperTables => PAPER_SAMPLES,
            Workload::Conformance => CONFORMANCE_SAMPLES,
            Workload::Churn => CHURN_SAMPLES,
        }
    }

    /// Runs one untraced or traced pass of the workload.
    pub fn pass(self, seed: u64, tracer: &mut Tracer, scratch: &Path) -> Pass {
        match self {
            Workload::PaperTables => paper_tables(seed, tracer),
            Workload::Conformance => conformance(seed, tracer),
            Workload::Churn => churn(seed, tracer, scratch),
        }
    }
}

/// Correctness checks, counted; each failure is kept by name.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// One kernel run standalone on each of the three simulators.
#[derive(Debug)]
pub struct KernelRuns {
    pub kind: KernelKind,
    pub functional_s: f64,
    pub rocket_s: f64,
    pub atomic_s: f64,
    pub instret: u64,
    pub rocket: CycleEvaluation,
    pub atomic: AtomicEvaluation,
}

/// One kernel guest run by a lockstep pair.
#[derive(Debug)]
pub struct PairRun {
    pub kind: KernelKind,
    pub pair: Pair,
    pub seconds: f64,
    pub steps: u64,
}

#[derive(Debug, Default)]
pub struct CampaignStats {
    pub replays: u64,
    pub seconds: f64,
    /// Host time of each replay (journal append included), in µs.
    pub replay_us: Vec<f64>,
    pub sdc_method1: u64,
    pub sdc_method1_ft: u64,
    pub quarantined: u64,
}

#[derive(Debug, Default)]
pub struct FuzzStats {
    pub programs: u64,
    /// Generation, assembly and pair runs.
    pub seconds: f64,
}

#[derive(Debug, Default)]
pub struct NativeStats {
    pub multiplications: u64,
    pub software_s: f64,
    pub method1_dummy_s: f64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Durations of the reference slices run during the pass.
    pub slices: Vec<f64>,
    /// Host time before the first simulated instruction.
    pub setup_s: f64,
    /// Host time inside the calls that retired `retired` instructions.
    pub sim_s: f64,
    pub retired: u64,
    /// Checked units of work.
    pub cases: u64,
    pub checks: Checks,
    /// Simulated values that must repeat exactly at one seed.
    pub guest: BTreeMap<String, f64>,
    pub vectors: Vec<TestVector>,
    pub guests: Vec<GuestProgram>,
    pub fuzz_programs: Vec<Program>,
    pub standalone: Vec<KernelRuns>,
    pub pairs: Vec<PairRun>,
    pub campaign: Option<CampaignStats>,
    pub fuzz: Option<FuzzStats>,
    pub native: Option<NativeStats>,
}

impl Pass {
    /// Drops the inputs and per-run outputs, keeping the summary.
    pub fn shed(mut self) -> Pass {
        self.vectors = Vec::new();
        self.guests = Vec::new();
        self.fuzz_programs = Vec::new();
        self.standalone = Vec::new();
        self
    }

    fn record(&mut self, name: String, value: f64) {
        self.guest.insert(name, value);
    }
}

/// Runs `f` in a span and returns its result with its host seconds, then
/// lets the host-speed meter run a reference slice if one is due.
pub fn timed<T>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = tracer.span(layer, name, f);
    let seconds = start.elapsed().as_secs_f64();
    tracer.tick();
    (out, seconds)
}

/// Host time since it started, less the reference slices run meanwhile.
struct Stopwatch {
    start: Instant,
    slice_time: Duration,
    first_slice: usize,
}

impl Stopwatch {
    fn start(tracer: &Tracer) -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            slice_time: tracer.slice_time(),
            first_slice: tracer.slice_count(),
        }
    }

    fn seconds(&self, tracer: &Tracer) -> f64 {
        (self.start.elapsed() - (tracer.slice_time() - self.slice_time)).as_secs_f64()
    }

    /// Ends the pass: its wall time and the reference slices it ran.
    fn finish(&self, tracer: &Tracer, pass: &mut Pass) {
        pass.wall_s = self.seconds(tracer);
        pass.slices = tracer.slices_since(self.first_slice).to_vec();
    }
}

/// Generates the seed's database and builds a guest per kernel.
pub fn setup(
    tracer: &mut Tracer,
    pass: &mut Pass,
    samples: usize,
    seed: u64,
    kinds: &[KernelKind],
) {
    pass.vectors = tracer.span("testgen", "testgen::generate", || workload(samples, seed));
    pass.guests = build_guests(tracer, &mut pass.checks, kinds, &pass.vectors);
}

pub fn build_guests(
    tracer: &mut Tracer,
    checks: &mut Checks,
    kinds: &[KernelKind],
    vectors: &[TestVector],
) -> Vec<GuestProgram> {
    let mut guests = Vec::new();
    for &kind in kinds {
        let built = tracer.span("codesign", "build_guest", || build_guest(kind, vectors, 1));
        checks.check(built.is_ok(), || {
            format!("build_guest[{}] failed", kind.slug())
        });
        guests.extend(built.ok());
    }
    guests
}

/// Runs every guest on the functional, Rocket and atomic simulators,
/// checking results against the `decnum` oracle and `instret` across the
/// three. The modelled L1 caches start empty in every run.
pub fn standalone(tracer: &mut Tracer, pass: &mut Pass, guests: &[GuestProgram], seed: u64) {
    for guest in guests {
        let kind = guest.kind;
        let slug = kind.slug();
        let (functional, functional_s) = timed(tracer, "riscv_sim", "try_run_functional", || {
            try_run_functional(guest)
        });
        let (rocket, rocket_s) = timed(tracer, "rocket_sim", "try_run_rocket", || {
            try_run_rocket(guest, rocket_timing(seed))
        });
        let (atomic, atomic_s) = timed(tracer, "atomic_sim", "try_run_atomic", || {
            try_run_atomic(guest, atomic_config())
        });
        pass.sim_s += functional_s + rocket_s + atomic_s;
        pass.cases += 3;
        for (sim, error) in [
            ("functional", functional.as_ref().err()),
            ("rocket", rocket.as_ref().err()),
            ("atomic", atomic.as_ref().err()),
        ] {
            pass.checks.check(error.is_none(), || {
                format!("{sim}[{slug}] run failed: {error:?}")
            });
        }
        let (Ok(functional), Ok(rocket), Ok(atomic)) = (functional, rocket, atomic) else {
            continue;
        };
        let instret = functional.instret;
        pass.checks.check(
            rocket.stats.instret == instret && atomic.instret == instret,
            || {
                format!(
                    "instret[{slug}] differs: functional {instret}, rocket {}, atomic {}",
                    rocket.stats.instret, atomic.instret
                )
            },
        );
        pass.retired += instret + rocket.stats.instret + atomic.instret;
        if !kind.results_are_dummy() {
            for (sim, results) in [
                ("functional", &functional.results),
                ("rocket", &rocket.results),
                ("atomic", &atomic.results),
            ] {
                let vectors = &pass.vectors[..guest.layout.count];
                let wrong = tracer.span("codesign", "verify_results", || {
                    verify_results(results, vectors)
                });
                pass.checks.check(wrong.is_empty(), || {
                    format!(
                        "{sim}[{slug}]: {} result(s) differ from the oracle",
                        wrong.len()
                    )
                });
            }
        }
        let stats = &rocket.stats;
        pass.record(format!("instret.{slug}"), instret as f64);
        pass.record(format!("rocket.cycles.{slug}"), stats.cycles as f64);
        pass.record(
            format!("rocket.cycles_per_mul.{slug}"),
            rocket.avg_total_cycles,
        );
        pass.record(
            format!("rocket.hw_cycles_per_mul.{slug}"),
            rocket.avg_hw_cycles,
        );
        pass.record(
            format!("rocket.stall_cycles.{slug}"),
            stats.stall_cycles as f64,
        );
        pass.record(
            format!("rocket.icache_misses.{slug}"),
            stats.icache.misses as f64,
        );
        pass.record(
            format!("rocket.dcache_misses.{slug}"),
            stats.dcache.misses as f64,
        );
        pass.record(
            format!("rocket.rocc_commands.{slug}"),
            stats.rocc_instructions as f64,
        );
        pass.record(format!("atomic.sim_s.{slug}"), atomic.simulated_seconds);
        if let Some(degraded) = functional.degraded {
            pass.record(format!("degraded.{slug}"), degraded as f64);
        }
        pass.standalone.push(KernelRuns {
            kind,
            functional_s,
            rocket_s,
            atomic_s,
            instret,
            rocket,
            atomic,
        });
    }
}

/// Samples behind the four Table IV end-to-end metrics: the paper's count.
pub const TABLE_IV_SAMPLES: usize = decimal_bench::PAPER_SAMPLES;

pub const PAPER_METRICS: [&str; 4] = [
    "m1_cycles_per_mul",
    "m1_speedup",
    "paper_speedup_err_pct",
    "dummy_estimate_err_pct",
];

/// Table IV as `tables table4 --samples 8000 --seed <seed>` computes it
/// (Rocket runs of Software, Method-1 and Method-1-dummy, oracle-checked):
/// Method-1 cycles per multiplication, its speed-up over software, the
/// speed-up's error against the paper's in %, and the dummy estimate's
/// cycle error against Method-1 in %.
pub fn table_iv(seed: u64) -> (Option<[f64; 4]>, Checks) {
    let vectors = workload(TABLE_IV_SAMPLES, seed);
    let mut checks = Checks::default();
    let mut cycles = |kind: KernelKind| {
        let eval = try_evaluate_cycles(kind, &vectors, rocket_timing(seed));
        checks.check(eval.is_ok(), || {
            format!("Table IV [{}]: {eval:?}", kind.slug())
        });
        eval.ok().map(|e| e.avg_total_cycles)
    };
    let values = (|| {
        let software = cycles(KernelKind::Software)?;
        let method1 = cycles(KernelKind::Method1)?;
        let dummy = cycles(KernelKind::Method1Dummy)?;
        let speedup = software / method1;
        Some([
            method1,
            speedup,
            100.0 * (speedup - PAPER_M1_SPEEDUP).abs() / PAPER_M1_SPEEDUP,
            100.0 * (dummy - method1) / method1,
        ])
    })();
    (values, checks)
}

/// Times Table V's native runs over the pass's database.
pub fn native(tracer: &mut Tracer, pass: &mut Pass, reps: u32) {
    let vectors = &pass.vectors;
    let (software, _) = timed(tracer, "decnum", "time_native", || {
        time_native(NativeMethod::Software, vectors, reps)
    });
    let (dummy, _) = timed(tracer, "decnum", "time_native", || {
        time_native(NativeMethod::Method1Dummy, vectors, reps)
    });
    pass.native = Some(NativeStats {
        multiplications: vectors.len() as u64 * u64::from(reps.max(1)),
        software_s: software.as_secs_f64(),
        method1_dummy_s: dummy.as_secs_f64(),
    });
}

fn paper_tables(seed: u64, tracer: &mut Tracer) -> Pass {
    let watch = Stopwatch::start(tracer);
    let mut pass = Pass::default();
    setup(tracer, &mut pass, PAPER_SAMPLES, seed, &KernelKind::ALL);
    pass.setup_s = watch.seconds(tracer);
    let guests = std::mem::take(&mut pass.guests);
    standalone(tracer, &mut pass, &guests, seed);
    pass.guests = guests;
    native(tracer, &mut pass, NATIVE_REPS);
    watch.finish(tracer, &mut pass);
    pass
}

/// Runs every guest on every simulator pair in lockstep, final state
/// compared; anything but agreement to a clean exit is a failure.
pub fn pairs(tracer: &mut Tracer, pass: &mut Pass, guests: &[GuestProgram]) {
    for guest in guests {
        let slug = guest.kind.slug();
        for pair in Pair::ALL {
            let (outcome, seconds) = timed(tracer, "lockstep", "run_guest_pair", || {
                run_guest_pair(guest, pair, DEFAULT_CONTEXT)
            });
            pass.sim_s += seconds;
            pass.cases += 1;
            let steps = match &outcome {
                LockstepOutcome::Agreement {
                    instructions,
                    termination: Termination::Exited(0),
                } => *instructions,
                _ => 0,
            };
            pass.checks.check(steps > 0, || {
                let detail = outcome
                    .divergence()
                    .map_or_else(|| format!("{outcome:?}"), ToString::to_string);
                format!("lockstep[{slug}, {pair}]: {detail}")
            });
            pass.retired += 2 * steps;
            pass.record(
                format!("lockstep.steps.{slug}.{}-{}", pair.a, pair.b),
                steps as f64,
            );
            pass.pairs.push(PairRun {
                kind: guest.kind,
                pair,
                seconds,
                steps,
            });
        }
    }
}

fn conformance(seed: u64, tracer: &mut Tracer) -> Pass {
    let watch = Stopwatch::start(tracer);
    let mut pass = Pass::default();
    setup(
        tracer,
        &mut pass,
        CONFORMANCE_SAMPLES,
        seed,
        &KernelKind::ALL,
    );
    pass.setup_s = watch.seconds(tracer);
    let guests = std::mem::take(&mut pass.guests);
    pairs(tracer, &mut pass, &guests);
    pass.guests = guests;
    watch.finish(tracer, &mut pass);
    pass
}

pub fn fuzz_config(seed: u64, programs: u32) -> FuzzConfig {
    FuzzConfig {
        seed,
        programs,
        body_items: FUZZ_BODY_ITEMS,
        with_rocc: true,
        ..FuzzConfig::default()
    }
}

/// Generates and assembles the fuzzer's programs `0..programs`.
pub fn fuzz_programs(tracer: &mut Tracer, pass: &mut Pass, config: &FuzzConfig) -> Vec<Program> {
    let watch = Stopwatch::start(tracer);
    let mut programs = Vec::new();
    for index in 0..config.programs {
        let source = tracer.span("lockstep", "nth_program_source", || {
            nth_program_source(config, index)
        });
        let program = tracer.span("riscv_asm", "assemble", || assemble(&source));
        pass.checks.check(program.is_ok(), || {
            format!("fuzz program {index} does not assemble")
        });
        programs.extend(program.ok());
        tracer.tick();
    }
    let stats = pass.fuzz.get_or_insert_with(FuzzStats::default);
    stats.seconds += watch.seconds(tracer);
    programs
}

/// Runs every fuzz program on every simulator pair in lockstep.
pub fn fuzz(tracer: &mut Tracer, pass: &mut Pass, config: &FuzzConfig, programs: &[Program]) {
    let options = LockstepOptions {
        max_instructions: config.max_instructions,
        ..LockstepOptions::default()
    };
    let mut seconds = 0.0;
    for (index, program) in programs.iter().enumerate() {
        for pair in Pair::ALL {
            let (outcome, t) = timed(tracer, "lockstep", "run_program_pair", || {
                run_program_pair(program, pair, config.with_rocc, &options)
            });
            seconds += t;
            pass.cases += 1;
            let steps = match &outcome {
                LockstepOutcome::Agreement {
                    instructions,
                    termination: Termination::Exited(_) | Termination::MatchingFault(_),
                } => Some(*instructions),
                _ => None,
            };
            pass.checks.check(steps.is_some(), || {
                let detail = outcome
                    .divergence()
                    .map_or_else(|| format!("{outcome:?}"), ToString::to_string);
                format!("fuzz program {index} on {pair}: {detail}")
            });
            pass.retired += 2 * steps.unwrap_or(0);
            *pass.guest.entry("fuzz.steps".to_string()).or_default() += steps.unwrap_or(0) as f64;
        }
    }
    pass.sim_s += seconds;
    let stats = pass.fuzz.get_or_insert_with(FuzzStats::default);
    stats.programs += programs.len() as u64;
    stats.seconds += seconds;
}

/// Runs the journaled fault campaign on each of `guests`.
pub fn campaign(
    tracer: &mut Tracer,
    pass: &mut Pass,
    guests: &[GuestProgram],
    faults: usize,
    seed: u64,
    scratch: &Path,
) {
    let mut stats = CampaignStats::default();
    for guest in guests {
        let kind = guest.kind;
        let slug = kind.slug();
        let config = CampaignConfig {
            seed,
            faults,
            instruction_budget: guest_budget(guest),
            result_words: guest.layout.count,
            ..CampaignConfig::default()
        };
        let spec = JournalSpec {
            path: scratch.join(format!("faults.{slug}.journal")),
            resume: false,
            checkpoint_every: 1,
        };
        let mut stamps: Vec<(usize, Instant)> = Vec::with_capacity(faults + 1);
        let (report, seconds) = timed(tracer, "lockstep", "run_campaign_journaled", || {
            run_campaign_journaled(&guest.program, &config, Some(&spec), &mut |p| {
                if stamps.last().is_none_or(|&(done, _)| done != p.done) {
                    stamps.push((p.done, Instant::now()));
                }
            })
        });
        stats.seconds += seconds;
        stats.replay_us.extend(
            stamps
                .windows(2)
                .map(|w| w[1].1.duration_since(w[0].1).as_secs_f64() * 1e6),
        );
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                pass.checks
                    .check(false, || format!("campaign[{slug}]: journal error {e}"));
                continue;
            }
        };
        let tally = report.tally();
        let replays = report.records.len() + report.quarantined.len();
        stats.replays += replays as u64;
        pass.cases += replays as u64;
        pass.checks
            .check(report.ok() && report.golden_exit == 0, || {
                format!(
                    "campaign[{slug}]: golden exit {} {:?}",
                    report.golden_exit, report.errors
                )
            });
        pass.checks.check(report.quarantined.is_empty(), || {
            format!(
                "campaign[{slug}]: {} case(s) quarantined",
                report.quarantined.len()
            )
        });
        stats.quarantined += report.quarantined.len() as u64;
        match kind {
            KernelKind::Method1 => stats.sdc_method1 += tally.silent_data_corruption,
            KernelKind::Method1Ft => {
                stats.sdc_method1_ft += tally.silent_data_corruption;
                pass.checks.check(tally.silent_data_corruption == 0, || {
                    format!(
                        "campaign[{slug}]: {} silent data corruption(s)",
                        tally.silent_data_corruption
                    )
                });
            }
            _ => {}
        }
        pass.record(
            format!("campaign.{slug}.commands"),
            report.total_commands as f64,
        );
        pass.record(format!("campaign.{slug}.masked"), tally.masked as f64);
        pass.record(format!("campaign.{slug}.detected"), tally.detected as f64);
        pass.record(
            format!("campaign.{slug}.watchdog"),
            tally.caught_by_watchdog as f64,
        );
        pass.record(
            format!("campaign.{slug}.sdc"),
            tally.silent_data_corruption as f64,
        );
    }
    pass.campaign = Some(stats);
}

fn churn(seed: u64, tracer: &mut Tracer, scratch: &Path) -> Pass {
    let watch = Stopwatch::start(tracer);
    let mut pass = Pass::default();
    setup(
        tracer,
        &mut pass,
        CHURN_SAMPLES,
        seed,
        &KernelKind::FAULT_CAMPAIGN,
    );
    let config = fuzz_config(seed, CHURN_PROGRAMS);
    let programs = fuzz_programs(tracer, &mut pass, &config);
    pass.setup_s = watch.seconds(tracer);
    let guests = std::mem::take(&mut pass.guests);
    campaign(tracer, &mut pass, &guests, CHURN_FAULTS, seed, scratch);
    pass.guests = guests;
    fuzz(tracer, &mut pass, &config, &programs);
    pass.fuzz_programs = programs;
    watch.finish(tracer, &mut pass);
    pass
}
