//! One simulator, pluggable timing.
//!
//! The three evaluation platforms run the same binary on the same
//! functional executor ([`Cpu`]); they differ only in how much modelled
//! time a step costs. [`Machine`] owns everything they share — stepping
//! and running, the hand-off of modelled time to the guest's `rdcycle`,
//! coprocessor attach, report assembly and the snapshot envelope — and a
//! [`TimingModel`] supplies the one part that differs. The functional
//! (Spike-role) simulator is `Machine<()>`: the unit model charges nothing
//! and leaves the core's own one-per-step cycle counter in place.

use crate::snapshot::{seal, unseal, ByteReader, ByteWriter, CpuSnapshot, SnapshotError, KIND_CPU};
use crate::{Coprocessor, Cpu, CpuError, Event, Marker};

/// The per-platform part of a simulator: the cycle charge for each step,
/// the counters it keeps, and the serialization of its own state.
///
/// [`Machine`] calls the model statically, so a model's charge inlines
/// into the run loop.
pub trait TimingModel: Clone {
    /// Construction parameters.
    type Config;
    /// Counters the model reports.
    type Stats;
    /// Short name used in reports (e.g. `"rocket"`).
    const LABEL: &'static str;
    /// Snapshot envelope kind tag: a snapshot only restores into a
    /// machine with the same timing model.
    const SNAPSHOT_KIND: u32;

    /// A model in its reset state.
    fn new(config: Self::Config) -> Self;

    /// The modelled cycle count, handed to the core before each step so
    /// guest `rdcycle` reads observe modelled time; `None` leaves the
    /// core's own count (one per step).
    fn cycle(&self) -> Option<u64>;

    /// Charges one step: a retired instruction, the exiting `ecall`, or a
    /// trap delivered to the guest's handler.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] if the event is inconsistent with the model
    /// (for example a retired custom instruction without a RoCC response).
    fn charge(&mut self, event: &Event) -> Result<(), CpuError>;

    /// Counters so far.
    fn stats(&self) -> Self::Stats;

    /// Appends the model's state to a snapshot body. The configuration is
    /// not part of it: a snapshot restores into a model built with the
    /// same configuration.
    fn save(&self, w: &mut ByteWriter);

    /// Reads back state written by [`TimingModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncated or malformed state, or state
    /// that does not fit this model's configuration.
    fn load(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError>;
}

/// The functional model: no timing, zero cost.
impl TimingModel for () {
    type Config = ();
    type Stats = ();
    const LABEL: &'static str = "functional";
    const SNAPSHOT_KIND: u32 = KIND_CPU;

    fn new((): ()) {}

    fn cycle(&self) -> Option<u64> {
        None
    }

    fn charge(&mut self, _: &Event) -> Result<(), CpuError> {
        Ok(())
    }

    fn stats(&self) {}

    fn save(&self, _: &mut ByteWriter) {}

    fn load(&mut self, _: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport<S> {
    /// The guest's exit code.
    pub exit_code: i64,
    /// The timing model's counters.
    pub stats: S,
    /// Markers the guest recorded (cycle values are modelled cycles).
    pub markers: Vec<Marker>,
    /// Captured console output.
    pub console: Vec<u8>,
}

/// The functional core plus a timing model.
pub struct Machine<T: TimingModel> {
    /// The functional core (public for program loading and register setup).
    pub cpu: Cpu,
    /// The timing model.
    pub timing: T,
}

impl<T: TimingModel> std::fmt::Debug for Machine<T>
where
    T::Stats: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(T::LABEL)
            .field("cpu", &self.cpu)
            .field("stats", &self.timing.stats())
            .finish()
    }
}

impl<T: TimingModel> Default for Machine<T>
where
    T::Config: Default,
{
    fn default() -> Self {
        Machine::new(T::Config::default())
    }
}

impl<T: TimingModel> Machine<T> {
    /// A machine with empty memory, no coprocessor, and a timing model
    /// built from `config`.
    #[must_use]
    pub fn new(config: T::Config) -> Self {
        Machine {
            cpu: Cpu::new(),
            timing: T::new(config),
        }
    }

    /// Attaches an accelerator to the core's RoCC port.
    pub fn attach_coprocessor(&mut self, coprocessor: Box<dyn Coprocessor>) {
        self.cpu.attach_coprocessor(coprocessor);
    }

    /// The timing model's counters so far.
    #[must_use]
    pub fn stats(&self) -> T::Stats {
        self.timing.stats()
    }

    /// Executes one instruction and charges its modelled time.
    ///
    /// # Errors
    ///
    /// Propagates core faults (see [`Cpu::step`]) and the model's charge
    /// errors.
    #[inline]
    pub fn step(&mut self) -> Result<Event, CpuError> {
        if let Some(cycle) = self.timing.cycle() {
            self.cpu.cycle = cycle;
        }
        let event = self.cpu.step()?;
        self.timing.charge(&event)?;
        Ok(event)
    }

    /// Runs to exit or `max_instructions` steps.
    ///
    /// # Errors
    ///
    /// Propagates faults (see [`Machine::step`]), or
    /// [`CpuError::InstructionLimit`] if the program did not exit in time.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunReport<T::Stats>, CpuError> {
        for _ in 0..max_instructions {
            if let Event::Exited { code } = self.step()? {
                return Ok(RunReport {
                    exit_code: code,
                    stats: self.timing.stats(),
                    markers: self.cpu.markers.clone(),
                    console: self.cpu.console.clone(),
                });
            }
        }
        Err(CpuError::InstructionLimit(max_instructions))
    }

    /// Serializes the complete machine state — the core (see
    /// [`Cpu::snapshot`]) followed by the timing model's state — into one
    /// sealed envelope tagged with the model's kind. Restoring it into a
    /// fresh machine of the same model and configuration continues the
    /// run bit-for-bit, modelled cycles included.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.cpu.snapshot().encode(&mut w);
        self.timing.save(&mut w);
        seal(T::SNAPSHOT_KIND, &w.finish())
    }

    /// Restores bytes produced by [`Machine::snapshot`]. The whole
    /// envelope is decoded and checked before any state changes; the
    /// attached coprocessor stays in place.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a version, kind, checksum or structure
    /// mismatch, or coprocessor state the attached coprocessor cannot
    /// restore.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = ByteReader::new(unseal(bytes, T::SNAPSHOT_KIND)?);
        let cpu = CpuSnapshot::decode(&mut r)?;
        let mut timing = self.timing.clone();
        timing.load(&mut r)?;
        r.expect_end()?;
        self.cpu.restore(&cpu)?;
        self.timing = timing;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::OpImmOp;
    use riscv_isa::{Instr, Reg};

    /// `addi a0, zero, 5; nop; addi a7, zero, 93; ecall` at 0x1000.
    fn loaded() -> Machine<()> {
        let prog = [
            Instr::OpImm {
                op: OpImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 5,
            },
            Instr::NOP,
            Instr::OpImm {
                op: OpImmOp::Addi,
                rd: Reg::A7,
                rs1: Reg::ZERO,
                imm: 93,
            },
            Instr::Ecall,
        ];
        let mut sim = Machine::<()>::default();
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(0x1000);
        sim
    }

    #[test]
    fn unit_model_keeps_the_cores_own_cycle_count() {
        let mut sim = loaded();
        let report = sim.run(10).unwrap();
        assert_eq!(report.exit_code, 5);
        assert_eq!((sim.cpu.cycle, sim.cpu.instret), (4, 4));
    }

    #[test]
    fn snapshot_restores_into_a_fresh_machine() {
        let mut first = loaded();
        first.step().unwrap();
        let bytes = first.snapshot();
        let mut second = Machine::<()>::default();
        second.restore(&bytes).unwrap();
        assert_eq!(second.snapshot(), bytes);
        assert_eq!(second.run(10).unwrap().exit_code, 5);
        assert_eq!(
            second.restore(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated)
        );
    }
}
