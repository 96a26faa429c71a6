//! A Gem5-`AtomicSimpleCPU`-like simulator.
//!
//! The paper's Table VI cross-checks the dummy-function estimate on "Gem-5
//! simulator with AtomicSimpleCPU at system call emulation (SE) mode"
//! targeting the RISC-V ISA. `AtomicSimpleCPU` executes one instruction per
//! CPU tick and folds memory time into fixed atomic-access latencies — no
//! pipeline, no caches. This crate reproduces that model as a
//! [`riscv_sim::TimingModel`], [`AtomicTiming`]: every instruction costs
//! one cycle plus a fixed latency per data-memory access, and results are
//! reported as simulated seconds at a configurable clock. Plugged into the
//! shared [`riscv_sim::Machine`] it is the simulator [`AtomicSim`].
//!
//! # Example
//!
//! ```
//! use atomic_sim::{AtomicSim, AtomicConfig};
//! use riscv_isa::{Instr, Reg};
//! use riscv_isa::instr::OpImmOp;
//!
//! # fn main() -> Result<(), riscv_sim::CpuError> {
//! let mut sim = AtomicSim::new(AtomicConfig::default());
//! let prog = [
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 0 },
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: 93 },
//!     Instr::Ecall,
//! ];
//! for (i, instr) in prog.iter().enumerate() {
//!     sim.cpu.memory.write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())?;
//! }
//! sim.cpu.set_pc(0x1000);
//! let report = sim.run(100)?;
//! assert_eq!(report.stats.cycles, 3);
//! assert_eq!(sim.timing.simulated_seconds(report.stats.cycles), 3e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use riscv_isa::instr::OpOp;
use riscv_isa::Instr;
use riscv_sim::snapshot::{ByteReader, ByteWriter};
use riscv_sim::{CpuError, Event, Machine, SnapshotError, TimingModel};

/// Atomic-CPU timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicConfig {
    /// Clock frequency in Hz (Gem5's default CPU clock is 1 GHz).
    pub clock_hz: f64,
    /// Extra cycles charged per data-memory access (atomic access latency).
    pub mem_access_cycles: u64,
    /// Extra cycles charged per multiply.
    pub mul_cycles: u64,
    /// Extra cycles charged per divide/remainder.
    pub div_cycles: u64,
}

impl Default for AtomicConfig {
    fn default() -> Self {
        AtomicConfig {
            clock_hz: 1.0e9,
            mem_access_cycles: 1,
            mul_cycles: 0,
            div_cycles: 0,
        }
    }
}

/// Counters for one atomic-mode run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtomicStats {
    /// Ticks consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Data-memory accesses.
    pub mem_accesses: u64,
}

/// The atomic CPU: the shared functional executor plus trivial fixed-cost
/// timing.
pub type AtomicSim = Machine<AtomicTiming>;

/// The atomic CPU's timing model: one tick per step plus fixed latencies.
#[derive(Debug, Clone)]
pub struct AtomicTiming {
    config: AtomicConfig,
    stats: AtomicStats,
}

impl AtomicTiming {
    /// Simulated wall-clock time of `cycles` ticks at the configured clock
    /// — the quantity the paper's Table VI reports.
    #[must_use]
    pub fn simulated_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.config.clock_hz
    }
}

impl TimingModel for AtomicTiming {
    type Config = AtomicConfig;
    type Stats = AtomicStats;
    const LABEL: &'static str = "atomic";
    const SNAPSHOT_KIND: u32 = 0x314D_5441; // "ATM1"

    fn new(config: AtomicConfig) -> Self {
        AtomicTiming {
            config,
            stats: AtomicStats::default(),
        }
    }

    #[inline]
    fn cycle(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }

    #[inline]
    fn charge(&mut self, event: &Event) -> Result<(), CpuError> {
        self.stats.cycles += 1;
        let retired = match event {
            // Trap delivery consumes the tick but retires nothing.
            Event::Trapped { .. } => return Ok(()),
            Event::Exited { .. } => {
                self.stats.instret += 1;
                return Ok(());
            }
            Event::Retired(retired) => retired,
        };
        self.stats.instret += 1;
        if retired.mem_access.is_some() {
            self.stats.cycles += self.config.mem_access_cycles;
            self.stats.mem_accesses += 1;
        }
        match retired.instr {
            Instr::Op { op, .. } if op.is_muldiv() => {
                self.stats.cycles +=
                    if matches!(op, OpOp::Mul | OpOp::Mulh | OpOp::Mulhsu | OpOp::Mulhu) {
                        self.config.mul_cycles
                    } else {
                        self.config.div_cycles
                    };
            }
            Instr::Custom(_) => {
                if let Some(resp) = retired.rocc {
                    self.stats.cycles += u64::from(resp.busy_cycles);
                    self.stats.mem_accesses += u64::from(resp.mem_accesses);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn stats(&self) -> AtomicStats {
        self.stats
    }

    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.stats.cycles);
        w.u64(self.stats.instret);
        w.u64(self.stats.mem_accesses);
    }

    fn load(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        self.stats = AtomicStats {
            cycles: r.u64()?,
            instret: r.u64()?,
            mem_accesses: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{OpImmOp, OpOp};
    use riscv_isa::Reg;

    fn load(sim: &mut AtomicSim, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(0x1000);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    #[test]
    fn one_cycle_per_instruction() {
        let mut sim = AtomicSim::default();
        let mut prog = vec![Instr::NOP; 10];
        prog.push(addi(Reg::A7, Reg::ZERO, 93));
        prog.push(Instr::Ecall);
        load(&mut sim, &prog);
        let report = sim.run(100).unwrap();
        assert_eq!(report.stats.instret, 12);
        assert_eq!(report.stats.cycles, 12);
        assert!((sim.timing.simulated_seconds(report.stats.cycles) - 12e-9).abs() < 1e-15);
    }

    #[test]
    fn memory_access_costs_extra() {
        let mut sim = AtomicSim::default();
        sim.cpu.memory.write_u64(0x2000, 1).unwrap();
        sim.cpu.set_reg(Reg::T0, 0x2000);
        let prog = vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T1,
                rs1: Reg::T0,
                offset: 0,
            },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut sim, &prog);
        let report = sim.run(100).unwrap();
        assert_eq!(report.stats.cycles, 4); // 3 instructions + 1 mem access
        assert_eq!(report.stats.mem_accesses, 1);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let build = || {
            let mut sim = AtomicSim::default();
            let mut prog = vec![Instr::NOP; 6];
            prog.push(addi(Reg::A0, Reg::ZERO, 7));
            prog.push(addi(Reg::A7, Reg::ZERO, 93));
            prog.push(Instr::Ecall);
            load(&mut sim, &prog);
            sim
        };
        // Uninterrupted reference run.
        let mut reference = build();
        let want = reference.run(100).unwrap();
        // Run half-way, snapshot, serialize, restore into a fresh sim.
        let mut first = build();
        for _ in 0..4 {
            first.step().unwrap();
        }
        let bytes = first.snapshot();
        let mut resumed = build();
        resumed.restore(&bytes).unwrap();
        let got = resumed.run(100).unwrap();
        assert_eq!(got.exit_code, want.exit_code);
        assert_eq!(got.stats, want.stats);
    }

    #[test]
    fn muldiv_latencies_configurable() {
        let mut sim = AtomicSim::new(AtomicConfig {
            mul_cycles: 3,
            div_cycles: 30,
            ..AtomicConfig::default()
        });
        let prog = vec![
            Instr::Op {
                op: OpOp::Mul,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        sim.cpu.set_reg(Reg::T2, 1);
        load(&mut sim, &prog);
        let report = sim.run(100).unwrap();
        assert_eq!(report.stats.cycles, 4 + 3 + 30);
    }
}
