//! The lockstep comparator: steps two simulators through the same program,
//! compares their canonical retirement streams in place, and reports the
//! first divergence with full context.

use std::collections::VecDeque;

use riscv_isa::instr::Instr;
use riscv_isa::{csr, Reg};
use riscv_sim::{Cpu, CpuError, Event, Machine, MemEffect, Retired, RetirementRecord, TimingModel};

/// Default number of pre-divergence retirements reported as context.
pub const DEFAULT_CONTEXT: usize = 8;

/// Anything that can be stepped in lockstep: a [`Machine`] with any timing
/// model, or a test fake wrapping a [`Cpu`]. The core gives the comparator
/// access to the architectural state after each step.
pub trait LockstepSim {
    /// Short name used in divergence reports (e.g. `"rocket"`).
    fn label(&self) -> &'static str;

    /// The functional core.
    fn cpu(&self) -> &Cpu;

    /// The functional core, mutably (for program loading).
    fn cpu_mut(&mut self) -> &mut Cpu;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`CpuError`].
    fn step_sim(&mut self) -> Result<Event, CpuError>;
}

impl<S: LockstepSim + ?Sized> LockstepSim for Box<S> {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn cpu(&self) -> &Cpu {
        (**self).cpu()
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        (**self).cpu_mut()
    }

    fn step_sim(&mut self) -> Result<Event, CpuError> {
        (**self).step_sim()
    }
}

impl<T: TimingModel> LockstepSim for Machine<T> {
    fn label(&self) -> &'static str {
        T::LABEL
    }

    fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    fn step_sim(&mut self) -> Result<Event, CpuError> {
        self.step()
    }
}

/// What one simulator did at one lockstep position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Retired(RetirementRecord),
    /// The program exited.
    Exited {
        /// The exit code.
        code: i64,
    },
    /// A fault was delivered to the guest's `mtvec` handler instead of
    /// killing the run.
    Trapped {
        /// The `mcause` value written.
        cause: u64,
        /// The `mepc` value written (the faulting pc).
        epc: u64,
    },
    /// The step faulted.
    Fault(CpuError),
}

impl std::fmt::Display for StepOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepOutcome::Retired(record) => write!(f, "{record}"),
            StepOutcome::Exited { code } => write!(f, "exited with code {code}"),
            StepOutcome::Trapped { cause, epc } => {
                write!(f, "trapped to handler (mcause={cause}, mepc={epc:#x})")
            }
            StepOutcome::Fault(error) => write!(f, "fault: {error}"),
        }
    }
}

/// One differing register between the two final (or divergence-time)
/// register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegDelta {
    /// The register.
    pub reg: Reg,
    /// Its value on the first simulator.
    pub a_value: u64,
    /// Its value on the second simulator.
    pub b_value: u64,
}

/// A full divergence report: where the streams split, what each side did,
/// how the register files differ, and the shared history leading up to it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Lockstep position (0-based count of retirements before this one).
    pub step: u64,
    /// Address of the divergent retirement (the first simulator's if it
    /// retired, otherwise the second's, otherwise the first's current pc).
    pub pc: u64,
    /// Label of the first simulator.
    pub a_label: &'static str,
    /// Label of the second simulator.
    pub b_label: &'static str,
    /// What the first simulator did.
    pub a: StepOutcome,
    /// What the second simulator did.
    pub b: StepOutcome,
    /// Registers whose post-step values differ.
    pub reg_delta: Vec<RegDelta>,
    /// Memory effects, when the two sides' differ: `(first, second)`.
    pub mem_delta: Option<(Option<riscv_sim::MemEffect>, Option<riscv_sim::MemEffect>)>,
    /// The last retirements before the divergence — identical on both sides
    /// by construction, so one copy suffices, rebuilt by re-running the
    /// first simulator.
    pub context: Vec<RetirementRecord>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lockstep divergence at retirement #{} (pc {:#x}) between `{}` and `{}`:",
            self.step, self.pc, self.a_label, self.b_label
        )?;
        writeln!(f, "  {:<12} {}", self.a_label, self.a)?;
        writeln!(f, "  {:<12} {}", self.b_label, self.b)?;
        if !self.reg_delta.is_empty() {
            writeln!(f, "  register delta:")?;
            for delta in &self.reg_delta {
                writeln!(
                    f,
                    "    {:<5} {} {:#x} | {} {:#x}",
                    delta.reg.to_string(),
                    self.a_label,
                    delta.a_value,
                    self.b_label,
                    delta.b_value
                )?;
            }
        }
        if let Some((a_mem, b_mem)) = &self.mem_delta {
            writeln!(
                f,
                "  memory delta: {} {:?} | {} {:?}",
                self.a_label, a_mem, self.b_label, b_mem
            )?;
        }
        if !self.context.is_empty() {
            writeln!(f, "  last {} retirements before divergence:", self.context.len())?;
            for record in &self.context {
                writeln!(f, "    {record}")?;
            }
        }
        Ok(())
    }
}

/// Why an agreeing lockstep run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Both programs exited with this code.
    Exited(i64),
    /// Both simulators faulted identically — architectural agreement.
    MatchingFault(CpuError),
    /// The step budget ran out with the streams still matching.
    BudgetExhausted,
}

/// The result of a lockstep run.
#[derive(Debug, Clone)]
pub enum LockstepOutcome {
    /// The retirement streams (and final state, if compared) matched.
    Agreement {
        /// Instructions retired in lockstep.
        instructions: u64,
        /// How the run ended.
        termination: Termination,
    },
    /// The streams split; here is where and how.
    Divergence(Box<Divergence>),
}

impl LockstepOutcome {
    /// True if the run agreed to completion.
    #[must_use]
    pub fn is_agreement(&self) -> bool {
        matches!(self, LockstepOutcome::Agreement { .. })
    }

    /// The divergence report, if the run diverged.
    #[must_use]
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            LockstepOutcome::Agreement { .. } => None,
            LockstepOutcome::Divergence(divergence) => Some(divergence),
        }
    }
}

/// Knobs for a lockstep run.
#[derive(Debug, Clone, Copy)]
pub struct LockstepOptions {
    /// Step budget before giving up with [`Termination::BudgetExhausted`].
    pub max_instructions: u64,
    /// Pre-divergence retirements to report as context. They are rebuilt
    /// only when a run diverges; 0 skips the rebuild.
    pub context: usize,
    /// Also compare final register files, console output and markers when
    /// both programs exit.
    pub compare_final_state: bool,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions {
            max_instructions: 2_000_000,
            context: DEFAULT_CONTEXT,
            compare_final_state: true,
        }
    }
}

/// The CSR number an instruction reads, if it is a CSR instruction.
fn csr_number(instr: &Instr) -> Option<u16> {
    match *instr {
        Instr::Csr { csr, .. } | Instr::CsrImm { csr, .. } => Some(csr),
        _ => None,
    }
}

/// True if the instruction reads the cycle/time counter — the one value
/// that legitimately differs across timing models.
fn is_cycle_read(instr: &Instr) -> bool {
    matches!(csr_number(instr), Some(number) if matches!(number, csr::CYCLE | csr::TIME))
}

/// Canonicalizes a record for comparison: the destination value of a
/// `rdcycle`/`rdtime` read is each timing model's own cycle count, which
/// legitimately differs across simulators, so it is masked to zero.
/// `rdinstret` is identical everywhere and stays comparable. The lockstep
/// comparator applies the same masking in place, without building records.
///
/// Masking covers the read itself; values *derived* from a cycle read by
/// later arithmetic are not tracked and will be reported as divergences.
/// The evaluation guests never compute on cycle values (they delimit
/// measurement regions with the `mark` syscall), and the fuzzer clears a
/// register immediately after reading `rdcycle` into it.
#[must_use]
pub fn canonical(mut record: RetirementRecord) -> RetirementRecord {
    if is_cycle_read(&record.instr) {
        if let Some((reg, _)) = record.rd_write {
            record.rd_write = Some((reg, 0));
        }
    }
    record
}

fn register_delta(a: &Cpu, b: &Cpu) -> Vec<RegDelta> {
    let (ra, rb) = (a.registers(), b.registers());
    (0..32)
        .filter(|&i| ra[i] != rb[i])
        .map(|i| RegDelta {
            reg: Reg::new(i as u8),
            a_value: ra[i],
            b_value: rb[i],
        })
        .collect()
}

/// True if two retirements are architecturally identical: exactly
/// `canonical(capture(a)) == canonical(capture(b))`, evaluated against each
/// side's post-step state without building either record. Memory values are
/// read back from each side's memory rather than taken from the core.
fn same_retirement(a: &Cpu, ra: &Retired, b: &Cpu, rb: &Retired) -> bool {
    let mem = |cpu: &Cpu, retired: &Retired| {
        retired
            .mem_access
            .map(|access| MemEffect::read_back(&cpu.memory, access))
    };
    a.instret == b.instret
        && ra.pc == rb.pc
        && ra.next_pc == rb.next_pc
        && ra.instr == rb.instr
        && ra
            .instr
            .dest()
            .is_none_or(|rd| a.reg(rd) == b.reg(rd) || is_cycle_read(&ra.instr))
        && mem(a, ra) == mem(b, rb)
        && ra.rocc.and_then(|resp| resp.rd_value) == rb.rocc.and_then(|resp| resp.rd_value)
}

fn outcome_of(result: Result<Event, CpuError>, cpu: &Cpu) -> StepOutcome {
    match result {
        Ok(Event::Retired(retired)) => {
            StepOutcome::Retired(RetirementRecord::capture(cpu, &retired))
        }
        Ok(Event::Exited { code }) => StepOutcome::Exited { code },
        Ok(Event::Trapped { cause, epc }) => StepOutcome::Trapped { cause, epc },
        Err(error) => StepOutcome::Fault(error),
    }
}

fn divergence_pc(a: &StepOutcome, b: &StepOutcome, fallback: u64) -> u64 {
    match (a, b) {
        (StepOutcome::Retired(record), _) | (_, StepOutcome::Retired(record)) => record.pc,
        _ => fallback,
    }
}

/// The last `len` canonical records side A retired before lockstep position
/// `step`, rebuilt by re-running a fresh side A for `step` positions. The
/// simulators are deterministic and every earlier position agreed, so these
/// are the records both sides retired. Trap positions count as steps but
/// retire nothing.
fn rebuild_context<A: LockstepSim>(
    build_a: &impl Fn() -> A,
    step: u64,
    len: usize,
) -> Vec<RetirementRecord> {
    if len == 0 {
        return Vec::new();
    }
    let mut sim = build_a();
    let mut context = VecDeque::with_capacity(len);
    for _ in 0..step {
        if let Ok(Event::Retired(retired)) = sim.step_sim() {
            if context.len() == len {
                context.pop_front();
            }
            context.push_back(canonical(RetirementRecord::capture(sim.cpu(), &retired)));
        }
    }
    context.into()
}

/// Runs two simulators in lockstep over the same program, comparing their
/// canonical retirement streams step by step.
///
/// `build_a` and `build_b` each return a fresh simulator with the program
/// already loaded (see [`crate::load_program`]). Each step is compared in
/// place against the post-step state; no record is built while the sides
/// agree. Only a divergence builds records: the two sides' outcomes, and
/// the last `options.context` retirements, rebuilt by calling `build_a`
/// again and re-running it to the divergence. An agreeing run calls each
/// builder once. A fault on both sides with the same error is architectural
/// agreement; anything asymmetric is a divergence.
pub fn run_lockstep<A: LockstepSim, B: LockstepSim>(
    build_a: impl Fn() -> A,
    build_b: impl Fn() -> B,
    options: &LockstepOptions,
) -> LockstepOutcome {
    let (mut a, mut b) = (build_a(), build_b());
    let (a_label, b_label) = (a.label(), b.label());
    let report = |step: u64,
                  pc: u64,
                  oa: StepOutcome,
                  ob: StepOutcome,
                  reg_delta: Vec<RegDelta>,
                  mem_delta| {
        LockstepOutcome::Divergence(Box::new(Divergence {
            step,
            pc,
            a_label,
            b_label,
            a: oa,
            b: ob,
            reg_delta,
            mem_delta,
            context: rebuild_context(&build_a, step, options.context),
        }))
    };
    // Registers whose current value came straight from a cycle/time read;
    // they hold each timing model's own count and are excluded from the
    // final-state register comparison.
    let mut cycle_tainted = [false; 32];

    for step in 0..options.max_instructions {
        let (ea, eb) = (a.step_sim(), b.step_sim());
        match (&ea, &eb) {
            (Ok(Event::Retired(ra)), Ok(Event::Retired(rb)))
                if same_retirement(a.cpu(), ra, b.cpu(), rb) =>
            {
                if let Some(reg) = ra.instr.dest() {
                    cycle_tainted[reg.number() as usize] = is_cycle_read(&ra.instr);
                }
            }
            (Ok(Event::Exited { code: ca }), Ok(Event::Exited { code: cb })) if ca == cb => {
                if options.compare_final_state {
                    if let Some(reg_delta) = final_state_delta(a.cpu(), b.cpu(), &cycle_tainted) {
                        let (oa, ob) = (outcome_of(ea, a.cpu()), outcome_of(eb, b.cpu()));
                        return report(step, a.cpu().pc(), oa, ob, reg_delta, None);
                    }
                }
                return LockstepOutcome::Agreement {
                    instructions: step + 1,
                    termination: Termination::Exited(*ca),
                };
            }
            // Identical trap delivery on both sides: not a retirement, the
            // lockstep run simply continues inside the handler.
            (Ok(trap @ Event::Trapped { .. }), Ok(other)) if trap == other => {}
            (Err(fa), Err(fb)) if fa == fb => {
                return LockstepOutcome::Agreement {
                    instructions: step,
                    termination: Termination::MatchingFault(*fa),
                };
            }
            _ => {
                let (oa, ob) = (outcome_of(ea, a.cpu()), outcome_of(eb, b.cpu()));
                let mem_delta = match (&oa, &ob) {
                    (StepOutcome::Retired(ra), StepOutcome::Retired(rb)) if ra.mem != rb.mem => {
                        Some((ra.mem, rb.mem))
                    }
                    _ => None,
                };
                let pc = divergence_pc(&oa, &ob, a.cpu().pc());
                let reg_delta = register_delta(a.cpu(), b.cpu());
                return report(step, pc, oa, ob, reg_delta, mem_delta);
            }
        }
    }
    LockstepOutcome::Agreement {
        instructions: options.max_instructions,
        termination: Termination::BudgetExhausted,
    }
}

/// After a matching exit, checks final architectural state: register files,
/// console output, and markers (ids and instruction counts; marker cycle
/// counts are timing and excluded). Registers whose last write was a
/// cycle/time read hold each timing model's own count and are skipped.
/// Returns the register delta if anything differs.
fn final_state_delta(a: &Cpu, b: &Cpu, cycle_tainted: &[bool; 32]) -> Option<Vec<RegDelta>> {
    let mut reg_delta = register_delta(a, b);
    reg_delta.retain(|delta| !cycle_tainted[delta.reg.number() as usize]);
    let console_match = a.console == b.console;
    let markers_match = a.markers.len() == b.markers.len()
        && a.markers
            .iter()
            .zip(&b.markers)
            .all(|(ma, mb)| ma.id == mb.id && ma.instret == mb.instret);
    if reg_delta.is_empty() && console_match && markers_match {
        return None;
    }
    Some(reg_delta)
}
