//! Cycle-accurate Rocket-like core model.
//!
//! This crate plays the role of the paper's Rocket-chip emulator. It is a
//! [`riscv_sim::TimingModel`], [`RocketTiming`]: an in-order single-issue
//! pipeline — register scoreboard, multi-cycle multiply/divide, L1
//! instruction/data caches with seeded random replacement, taken-branch
//! flush penalty, and RoCC dispatch/response timing — that splits every
//! run's cycles into a software part and a hardware (accelerator) part,
//! exactly the decomposition reported in the paper's Table IV. Plugged into
//! the shared [`riscv_sim::Machine`] it is the simulator [`RocketSim`];
//! stepping, running, snapshots and coprocessor attach are the machine's.
//!
//! # Example
//!
//! ```
//! use rocket_sim::{RocketSim, TimingConfig};
//! use riscv_isa::{Instr, Reg};
//! use riscv_isa::instr::OpImmOp;
//!
//! # fn main() -> Result<(), riscv_sim::CpuError> {
//! let mut sim = RocketSim::new(TimingConfig::default());
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
//! assert!(report.stats.cycles >= report.stats.instret);
//! assert_eq!(report.stats, sim.stats());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod core;

pub use crate::core::{RocketSim, RocketTiming, RunStats, TimingConfig};
pub use cache::{Cache, CacheConfig, CacheStats};
