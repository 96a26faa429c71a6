//! The traced run's probes: the layers a workload's own pass does not
//! exercise, run small on the workload's inputs, and micro-timings of
//! single calls (decode, memory read, load, RoCC command, journal append)
//! that no span can isolate from outside the simulators.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use codesign::framework::{try_run_atomic, GuestProgram};
use codesign::kernels::{kernel_source, KernelKind};
use codesign::report::{table4, time_table, Table4Row};
use decimal_bench::{atomic_config, rocket_timing, try_evaluate_cycles, try_guest_for, workload};
use lockstep::journal::Journal;
use lockstep::{guest_budget, load_program};
use riscv_asm::{assemble, Program};
use riscv_isa::Instr;
use riscv_sim::{
    CoprocSnapshot, Coprocessor, Cpu, CpuError, Memory, RoccCommand, RoccResponse, SnapshotError,
};
use rocc::DecimalAccelerator;
use testgen::{driver_source, operand_data_section, DriverLayout, TestVector};

use crate::trace::Tracer;
use crate::workloads::{self, Checks, Pass, Workload, CHURN_SAMPLES};

/// Samples in the guests `paper_tables` runs through lockstep pairs.
pub const PAIR_PROBE_SAMPLES: usize = 40;
/// Faults per kernel in the campaign probe.
pub const PROBE_FAULTS: usize = 40;
/// Programs in the fuzz probe.
pub const PROBE_PROGRAMS: u32 = 100;
/// Native multiplications per method in the native probe.
pub const PROBE_NATIVE_MULS: u32 = 40_000;
/// Calls per micro-timing.
pub const MICRO_CALLS: u64 = 2_000_000;
/// Program loads timed by the load probe.
pub const LOAD_CALLS: u64 = 500;
/// Records appended by the journal probe.
pub const JOURNAL_APPENDS: u64 = 2_000;

/// What the probes measured, beside the spans.
#[derive(Default)]
pub struct Probes {
    pub pass: Pass,
    /// Words the assembler emitted while traced (all workloads' calls).
    pub assembled_words: u64,
    pub decode_ns: f64,
    pub read_u32_ns: f64,
    pub load_us: f64,
    pub rocc_cmd_ns: f64,
    pub journal_append_us: f64,
}

/// Forwards to a [`DecimalAccelerator`], timing every command.
struct TimedAccelerator {
    inner: DecimalAccelerator,
    /// `(commands, nanoseconds)` so far, shared with the probe.
    totals: Rc<Cell<(u64, u64)>>,
}

impl Coprocessor for TimedAccelerator {
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        let start = Instant::now();
        let response = self.inner.execute(cmd, mem);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (count, total) = self.totals.get();
        self.totals.set((count + 1, total + ns));
        response
    }

    fn watchdog_abort(&mut self) {
        self.inner.watchdog_abort();
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn snapshot_state(&self) -> Option<CoprocSnapshot> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, snapshot: &CoprocSnapshot) -> Result<(), SnapshotError> {
        self.inner.restore_state(snapshot)
    }
}

fn program_words(program: &Program) -> u64 {
    program
        .segments()
        .iter()
        .map(|s| s.data.len() as u64 / 4)
        .sum()
}

fn text_words(program: &Program) -> impl Iterator<Item = (u64, u32)> + '_ {
    let text = &program.text;
    text.data.chunks_exact(4).enumerate().map(|(i, w)| {
        (
            text.base + 4 * i as u64,
            u32::from_le_bytes([w[0], w[1], w[2], w[3]]),
        )
    })
}

/// Runs the probes for `workload`, given its traced pass `main`.
pub fn run(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    main: &Pass,
    scratch: &Path,
) -> Probes {
    let mut probes = Probes::default();
    let pass = &mut probes.pass;
    // The guests whose standalone runs, pairs and RoCC commands are probed.
    let sim_guests: Vec<GuestProgram> = match workload {
        Workload::PaperTables => {
            pass.vectors = workload_vectors(tracer, PAIR_PROBE_SAMPLES, seed);
            let guests =
                workloads::build_guests(tracer, &mut pass.checks, &KernelKind::ALL, &pass.vectors);
            workloads::standalone(tracer, pass, &guests, seed);
            workloads::pairs(tracer, pass, &guests);
            cross_check_tables(tracer, &mut pass.checks, main, seed);
            main.guests.clone()
        }
        Workload::Conformance => {
            pass.vectors = main.vectors.clone();
            workloads::standalone(tracer, pass, &main.guests, seed);
            main.guests.clone()
        }
        Workload::Churn => {
            pass.vectors = main.vectors.clone();
            let guests =
                workloads::build_guests(tracer, &mut pass.checks, &KernelKind::ALL, &pass.vectors);
            workloads::standalone(tracer, pass, &guests, seed);
            workloads::pairs(tracer, pass, &guests);
            guests
        }
    };
    if workload != Workload::Churn {
        let vectors = workload_vectors(tracer, CHURN_SAMPLES, seed);
        let guests = workloads::build_guests(
            tracer,
            &mut pass.checks,
            &KernelKind::FAULT_CAMPAIGN,
            &vectors,
        );
        workloads::campaign(tracer, pass, &guests, PROBE_FAULTS, seed, scratch);
        let config = workloads::fuzz_config(seed, PROBE_PROGRAMS);
        let programs = workloads::fuzz_programs(tracer, pass, &config);
        probes.assembled_words += programs.iter().map(program_words).sum::<u64>();
        workloads::fuzz(tracer, pass, &config, &programs);
    } else {
        probes.assembled_words += main.fuzz_programs.iter().map(program_words).sum::<u64>();
    }
    if workload != Workload::PaperTables {
        let samples = u32::try_from(pass.vectors.len()).expect("probe databases are small");
        workloads::native(tracer, pass, (PROBE_NATIVE_MULS / samples.max(1)).max(1));
    }
    probes.assembled_words += assemble_probe(tracer, &mut probes.pass.checks, &sim_guests, main);
    let mut text: Vec<&Program> = sim_guests.iter().map(|g| &g.program).collect();
    text.extend(main.fuzz_programs.iter());
    probes.decode_ns = decode_probe(tracer, &text);
    probes.read_u32_ns = read_u32_probe(tracer, &sim_guests);
    probes.load_us = load_probe(tracer, &text);
    let (commands, ns) = rocc_probe(tracer, &mut probes.pass.checks, &sim_guests);
    probes.rocc_cmd_ns = ns as f64 / commands.max(1) as f64;
    probes.journal_append_us = journal_probe(tracer, &mut probes.pass.checks, scratch);
    probes
}

fn workload_vectors(tracer: &mut Tracer, samples: usize, seed: u64) -> Vec<TestVector> {
    tracer.span("testgen", "testgen::generate", || workload(samples, seed))
}

/// Re-emits each guest's source as `build_guest` does and assembles it
/// again; returns the words emitted.
fn assemble_probe(
    tracer: &mut Tracer,
    checks: &mut Checks,
    guests: &[GuestProgram],
    main: &Pass,
) -> u64 {
    let mut words = 0;
    for guest in guests {
        let vectors = if main.vectors.len() >= guest.layout.count {
            &main.vectors[..guest.layout.count]
        } else {
            continue;
        };
        let source = driver_source(DriverLayout {
            count: vectors.len(),
            repetitions: 1,
            per_sample_marks: false,
        }) + &kernel_source(guest.kind)
            + &operand_data_section(vectors);
        let program = tracer.span("riscv_asm", "assemble", || assemble(&source));
        checks.check(
            program
                .as_ref()
                .is_ok_and(|p| p.text.data == guest.program.text.data),
            || {
                format!(
                    "re-assembled {} differs from build_guest",
                    guest.kind.slug()
                )
            },
        );
        words += program.as_ref().map_or(0, program_words);
    }
    words
}

/// Host ns per `Instr::decode` over the programs' text words.
fn decode_probe(tracer: &mut Tracer, programs: &[&Program]) -> f64 {
    let words: Vec<u32> = programs
        .iter()
        .flat_map(|p| text_words(p).map(|(_, w)| w))
        .collect();
    let rounds = MICRO_CALLS.div_ceil(words.len().max(1) as u64);
    let start = Instant::now();
    tracer.span("riscv_isa", "Instr::decode", || {
        for _ in 0..rounds {
            for &word in &words {
                let _ = std::hint::black_box(Instr::decode(std::hint::black_box(word)));
            }
        }
    });
    start.elapsed().as_nanos() as f64 / (rounds * words.len().max(1) as u64) as f64
}

/// Host ns per `Memory::read_u32` over the guests' text addresses.
fn read_u32_probe(tracer: &mut Tracer, guests: &[GuestProgram]) -> f64 {
    let mut reads = 0u64;
    let mut ns = 0u128;
    for guest in guests {
        let mut memory = Memory::new();
        let text = &guest.program.text;
        if memory.load_bytes(text.base, &text.data).is_err() {
            continue;
        }
        let addresses: Vec<u64> = text_words(&guest.program).map(|(a, _)| a).collect();
        let rounds =
            (MICRO_CALLS / guests.len().max(1) as u64).div_ceil(addresses.len().max(1) as u64);
        let start = Instant::now();
        tracer.span("riscv_sim", "Memory::read_u32", || {
            for _ in 0..rounds {
                for &address in &addresses {
                    let _ = std::hint::black_box(memory.read_u32(std::hint::black_box(address)));
                }
            }
        });
        ns += start.elapsed().as_nanos();
        reads += rounds * addresses.len() as u64;
    }
    ns as f64 / reads.max(1) as f64
}

/// Host µs to build a core, attach the accelerator and load a program.
fn load_probe(tracer: &mut Tracer, programs: &[&Program]) -> f64 {
    let start = Instant::now();
    let mut loads = 0u64;
    tracer.span("riscv_sim", "new+attach+load", || {
        while loads < LOAD_CALLS {
            for program in programs.iter().take(LOAD_CALLS as usize) {
                let mut cpu = Cpu::new();
                cpu.attach_coprocessor(Box::new(DecimalAccelerator::new()));
                load_program(&mut cpu, program);
                std::hint::black_box(&cpu);
                loads += 1;
            }
        }
    });
    start.elapsed().as_secs_f64() * 1e6 / loads.max(1) as f64
}

/// Runs each RoCC guest on the functional core with every accelerator
/// command timed; returns `(commands, ns)`.
fn rocc_probe(tracer: &mut Tracer, checks: &mut Checks, guests: &[GuestProgram]) -> (u64, u64) {
    let mut sum = (0, 0);
    for guest in guests.iter().filter(|g| g.kind.uses_accelerator()) {
        let totals = Rc::new(Cell::new((0, 0)));
        let mut cpu = Cpu::new();
        cpu.attach_coprocessor(Box::new(TimedAccelerator {
            inner: DecimalAccelerator::new(),
            totals: Rc::clone(&totals),
        }));
        load_program(&mut cpu, &guest.program);
        let span = tracer.enter("riscv_sim", "Cpu::run");
        let exit = cpu.run(guest_budget(guest));
        tracer.exit(span);
        let (count, ns) = totals.get();
        tracer.aggregate(span, "rocc", "Coprocessor::execute", count, ns);
        checks.check(exit == Ok(0), || {
            format!(
                "timed-accelerator run[{}] ended {exit:?}",
                guest.kind.slug()
            )
        });
        sum = (sum.0 + count, sum.1 + ns);
    }
    sum
}

/// Host µs per `Journal::append_case` of a campaign-shaped record.
fn journal_probe(tracer: &mut Tracer, checks: &mut Checks, scratch: &Path) -> f64 {
    let path = scratch.join("probe.journal");
    let mut journal = match Journal::create(&path, "faults", 0) {
        Ok(journal) => journal,
        Err(e) => {
            checks.check(false, || format!("journal probe: {e}"));
            return 0.0;
        }
    };
    let start = Instant::now();
    let mut ok = true;
    for index in 0..JOURNAL_APPENDS {
        let index = index.to_string();
        let appended = tracer.span("lockstep", "Journal::append_case", || {
            journal.append_case(&[&index, "1234", "reg:3:77", "masked"])
        });
        ok &= appended.is_ok();
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / JOURNAL_APPENDS as f64;
    checks.check(ok, || "journal probe: append failed".to_string());
    us
}

/// Checks that the pass's Rocket and atomic numbers are the ones the
/// `tables` binary prints for Table IV and Table VI at the same samples and
/// seed, by producing both tables the way `tables` does.
fn cross_check_tables(tracer: &mut Tracer, checks: &mut Checks, main: &Pass, seed: u64) {
    let kinds = [
        KernelKind::Method1,
        KernelKind::Software,
        KernelKind::Method1Dummy,
    ];
    let ours: Vec<Table4Row> = kinds
        .iter()
        .filter_map(|&kind| {
            let run = main.standalone.iter().find(|r| r.kind == kind)?;
            Some(Table4Row::from_eval(kind, &run.rocket))
        })
        .collect();
    let theirs: Vec<Table4Row> = kinds
        .iter()
        .filter_map(|&kind| {
            let eval = tracer.span("rocket_sim", "try_evaluate_cycles", || {
                try_evaluate_cycles(kind, &main.vectors, rocket_timing(seed))
            });
            Some(Table4Row::from_eval(kind, &eval.ok()?))
        })
        .collect();
    let render = |rows: &[Table4Row]| {
        rows.iter()
            .find(|r| r.name == KernelKind::Software.name())
            .map(|baseline| table4(rows, baseline))
    };
    let exact = ours.len() == kinds.len()
        && ours.len() == theirs.len()
        && ours
            .iter()
            .zip(&theirs)
            .all(|(a, b)| a.sw == b.sw && a.hw == b.hw);
    let (ours4, theirs4) = (render(&ours), render(&theirs));
    checks.check(exact && ours4 == theirs4, || {
        format!("Table IV differs from `tables table4`:\n{ours4:?}\n{theirs4:?}")
    });
    let table6 = |rows: Vec<(String, f64)>| {
        time_table(
            "Table VI: Evaluation using the Gem5-like AtomicSimpleCPU model",
            "Time (sec)",
            &rows,
            1,
        )
    };
    let labelled = [
        ("Method-1 using dummy function", KernelKind::Method1Dummy),
        ("Software (decNumber-style)", KernelKind::Software),
    ];
    let ours6: Vec<(String, f64)> = labelled
        .iter()
        .filter_map(|&(label, kind)| {
            let run = main.standalone.iter().find(|r| r.kind == kind)?;
            Some((label.to_string(), run.atomic.simulated_seconds))
        })
        .collect();
    let theirs6: Vec<(String, f64)> = labelled
        .iter()
        .filter_map(|&(label, kind)| {
            let guest = try_guest_for(kind, &main.vectors).ok()?;
            let eval = tracer.span("atomic_sim", "try_run_atomic", || {
                try_run_atomic(&guest, atomic_config())
            });
            Some((label.to_string(), eval.ok()?.simulated_seconds))
        })
        .collect();
    let ok6 = ours6.len() == 2 && ours6 == theirs6;
    let (ours6, theirs6) = (table6(ours6), table6(theirs6));
    checks.check(ok6, || {
        format!("Table VI differs from `tables table6`:\n{ours6}\n{theirs6}")
    });
    if let Some(table) = ours4 {
        eprintln!("{table}");
    }
    eprintln!("{ours6}");
}
