//! The cycle-accurate core model.

use riscv_isa::instr::{Instr, Op32Op, OpOp};
use riscv_isa::Reg;
use riscv_sim::snapshot::{ByteReader, ByteWriter};
use riscv_sim::{CpuError, Event, Machine, Retired, SnapshotError, TimingModel};

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Pipeline latency and penalty parameters, with Rocket-flavoured defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Extra cycles for an L1 miss (refill from the next level).
    pub miss_penalty: u32,
    /// Load-to-use latency on a hit (1 means no load-use stall possible).
    pub load_latency: u32,
    /// Multiplier result latency (pipelined).
    pub mul_latency: u32,
    /// Iterative divider occupancy (blocking).
    pub div_latency: u32,
    /// Flush penalty for a taken control-flow transfer.
    pub branch_penalty: u32,
    /// Cycles from accelerator `ready` to the core observing `resp` when the
    /// command has `xd` set (the RoCC interface "imposes a latency overhead
    /// during data exchange", paper §V).
    pub rocc_resp_latency: u32,
    /// Pipeline flush cost of delivering a trap to the `mtvec` handler.
    pub trap_penalty: u32,
    /// Seed for the caches' random-replacement generators.
    pub seed: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            icache: CacheConfig::rocket_l1(),
            dcache: CacheConfig::rocket_l1(),
            miss_penalty: 20,
            load_latency: 2,
            mul_latency: 4,
            div_latency: 34,
            branch_penalty: 2,
            rocc_resp_latency: 2,
            trap_penalty: 3,
            seed: 0x5EED_0001,
        }
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total modelled cycles.
    pub cycles: u64,
    /// Cycles attributed to ordinary (software) execution.
    pub sw_cycles: u64,
    /// Cycles attributed to the accelerator: RoCC dispatch, execution-unit
    /// busy time, and response synchronization (the "HW part" column of the
    /// paper's Table IV).
    pub hw_cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// RoCC instructions among them.
    pub rocc_instructions: u64,
    /// Cycles lost to operand (scoreboard) stalls.
    pub stall_cycles: u64,
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
}

/// The Rocket-like cycle-accurate core: an in-order single-issue pipeline
/// model on the shared functional executor.
pub type RocketSim = Machine<RocketTiming>;

/// The Rocket-like pipeline timing model.
///
/// Timing is charged per retired instruction: one issue cycle, operand
/// stalls from a register scoreboard (load/mul/div latencies), I-cache and
/// D-cache miss penalties, a flush penalty for taken control transfers, and
/// the RoCC handshake + accelerator busy time for custom instructions.
/// RoCC-attributed cycles accumulate separately so Table IV's SW/HW split
/// falls directly out of a run.
#[derive(Debug, Clone)]
pub struct RocketTiming {
    config: TimingConfig,
    icache: Cache,
    dcache: Cache,
    /// Cycle at which each register's pending result is ready.
    ready_at: [u64; 32],
    /// Counters; the cache fields are filled in by [`TimingModel::stats`].
    stats: RunStats,
}

/// Cycles charged for one retired instruction.
struct Cost {
    total: u64,
    hw: u64,
}

impl RocketTiming {
    #[inline]
    fn charge_retired(&mut self, retired: &Retired) -> Result<Cost, CpuError> {
        let config = &self.config;
        let zero = Reg::ZERO;
        // One match gives the instruction's timing shape: the registers it
        // reads (`x0` fills an unused slot and never stalls, since
        // `ready_at[0]` stays 0), the register a load or multiply latency
        // applies to (`x0` if none), the cycles a blocking unit adds after
        // issue (the divider, or the RoCC handshake), and whether the
        // instruction's cycles are the accelerator's.
        let (sources, result, blocking, hardware) = match retired.instr {
            Instr::Jalr { rs1, .. }
            | Instr::OpImm { rs1, .. }
            | Instr::OpImm32 { rs1, .. }
            | Instr::Csr { rs1, .. } => ([rs1, zero], (zero, 0), 0, false),
            Instr::Load { rd, rs1, .. } => ([rs1, zero], (rd, config.load_latency), 0, false),
            Instr::Branch { rs1, rs2, .. } | Instr::Store { rs2, rs1, .. } => {
                ([rs1, rs2], (zero, 0), 0, false)
            }
            Instr::Op { op, rd, rs1, rs2 } => match op {
                OpOp::Mul | OpOp::Mulh | OpOp::Mulhsu | OpOp::Mulhu => {
                    ([rs1, rs2], (rd, config.mul_latency), 0, false)
                }
                // Iterative, blocking divider.
                OpOp::Div | OpOp::Divu | OpOp::Rem | OpOp::Remu => {
                    ([rs1, rs2], (zero, 0), u64::from(config.div_latency) - 1, false)
                }
                _ => ([rs1, rs2], (zero, 0), 0, false),
            },
            Instr::Op32 { op, rd, rs1, rs2 } => match op {
                Op32Op::Mulw => ([rs1, rs2], (rd, config.mul_latency), 0, false),
                Op32Op::Divw | Op32Op::Divuw | Op32Op::Remw | Op32Op::Remuw => {
                    ([rs1, rs2], (zero, 0), u64::from(config.div_latency) - 1, false)
                }
                _ => ([rs1, rs2], (zero, 0), 0, false),
            },
            Instr::Custom(instr) => {
                let resp = retired
                    .rocc
                    .ok_or(CpuError::RoccProtocol("retired custom carried no response"))?;
                self.stats.rocc_instructions += 1;
                // Execution-unit busy time plus RoCC memory-port occupancy,
                // then the response synchronization if the core waits on rd.
                let mut rocc_cost = u64::from(resp.busy_cycles) + u64::from(resp.mem_accesses);
                if instr.xd {
                    rocc_cost += u64::from(config.rocc_resp_latency);
                }
                let read = |enabled: bool, reg: Reg| if enabled { reg } else { zero };
                (
                    [read(instr.xs1, instr.rs1), read(instr.xs2, instr.rs2)],
                    (zero, 0),
                    rocc_cost,
                    true,
                )
            }
            _ => ([zero, zero], (zero, 0), 0, false),
        };

        let cycle = self.stats.cycles;
        // Issue, plus operand stalls against the scoreboard.
        let [rs1, rs2] = sources.map(|src| self.ready_at[src.number() as usize]);
        let stall = rs1.max(rs2).saturating_sub(cycle);
        self.stats.stall_cycles += stall;
        let mut total = 1 + stall;

        // Fetch.
        if !self.icache.access(retired.pc) {
            total += u64::from(config.miss_penalty);
        }

        // Data access.
        if let Some(access) = retired.mem_access {
            if !self.dcache.access(access.addr) {
                total += u64::from(config.miss_penalty);
            }
        }

        let (result_reg, latency) = result;
        if result_reg != zero {
            self.ready_at[result_reg.number() as usize] = cycle + total + u64::from(latency) - 1;
        }

        total += blocking;
        // The whole of a RoCC instruction — dispatch cycle, operand stalls
        // and accelerator time — is the co-design's hardware share.
        let hw = if hardware { total } else { 0 };

        // Taken control transfers flush the front end.
        if retired.redirected() {
            total += u64::from(config.branch_penalty);
        }

        Ok(Cost { total, hw })
    }
}

impl TimingModel for RocketTiming {
    type Config = TimingConfig;
    type Stats = RunStats;
    const LABEL: &'static str = "rocket";
    const SNAPSHOT_KIND: u32 = 0x3154_4B52; // "RKT1"

    fn new(config: TimingConfig) -> Self {
        RocketTiming {
            icache: Cache::new(config.icache, config.seed ^ 0x1CAC4E),
            dcache: Cache::new(config.dcache, config.seed ^ 0xDCAC4E),
            config,
            ready_at: [0; 32],
            stats: RunStats::default(),
        }
    }

    #[inline]
    fn cycle(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }

    #[inline]
    fn charge(&mut self, event: &Event) -> Result<(), CpuError> {
        match event {
            Event::Retired(retired) => {
                let cost = self.charge_retired(retired)?;
                self.stats.cycles += cost.total;
                self.stats.instret += 1;
                self.stats.sw_cycles += cost.total - cost.hw;
                self.stats.hw_cycles += cost.hw;
            }
            Event::Exited { .. } => {
                // The exiting ecall costs one software cycle.
                self.stats.cycles += 1;
                self.stats.instret += 1;
                self.stats.sw_cycles += 1;
            }
            Event::Trapped { .. } => {
                // Trap delivery flushes the pipeline but retires nothing.
                let cost = 1 + u64::from(self.config.trap_penalty);
                self.stats.cycles += cost;
                self.stats.sw_cycles += cost;
            }
        }
        Ok(())
    }

    fn stats(&self) -> RunStats {
        RunStats {
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            ..self.stats
        }
    }

    fn save(&self, w: &mut ByteWriter) {
        for ready in self.ready_at {
            w.u64(ready);
        }
        let stats = self.stats;
        for counter in [
            stats.cycles,
            stats.sw_cycles,
            stats.hw_cycles,
            stats.instret,
            stats.rocc_instructions,
            stats.stall_cycles,
        ] {
            w.u64(counter);
        }
        self.icache.save(w);
        self.dcache.save(w);
    }

    fn load(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        for ready in &mut self.ready_at {
            *ready = r.u64()?;
        }
        if self.ready_at[0] != 0 {
            // x0 never has a pending result; the charge relies on it.
            return Err(SnapshotError::Malformed("x0 has a pending result"));
        }
        self.stats = RunStats {
            cycles: r.u64()?,
            sw_cycles: r.u64()?,
            hw_cycles: r.u64()?,
            instret: r.u64()?,
            rocc_instructions: r.u64()?,
            stall_cycles: r.u64()?,
            ..RunStats::default()
        };
        self.icache.load(r)?;
        self.dcache.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{OpImmOp};

    fn load(sim: &mut RocketSim, base: u64, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(base + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(base);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    fn exit_prog(mut body: Vec<Instr>) -> Vec<Instr> {
        body.push(addi(Reg::A7, Reg::ZERO, 93));
        body.push(Instr::Ecall);
        body
    }

    #[test]
    fn cycles_at_least_instructions() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![Instr::NOP; 50]);
        load(&mut sim, 0x1000, &prog);
        let report = sim.run(1000).unwrap();
        assert!(report.stats.cycles >= report.stats.instret);
        assert_eq!(report.stats.instret, 52);
        assert_eq!(report.stats.hw_cycles, 0);
    }

    #[test]
    fn load_use_stall_costs_a_cycle() {
        // Two programs: load then immediately use vs load, gap, use.
        let dependent = exit_prog(vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T0,
                rs1: Reg::T1,
                offset: 0,
            },
            addi(Reg::T2, Reg::T0, 1),
        ]);
        let independent = exit_prog(vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T0,
                rs1: Reg::T1,
                offset: 0,
            },
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::T2, Reg::T0, 1),
        ]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            sim.cpu.memory.write_u64(0x2000, 7).unwrap();
            sim.cpu.set_reg(Reg::T1, 0x2000);
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap().stats
        };
        let dep = run(&dependent);
        let indep = run(&independent);
        assert!(dep.stall_cycles > 0, "dependent use must stall");
        // The independent version retires one more instruction but stalls less.
        assert_eq!(indep.stall_cycles, 0);
        assert_eq!(indep.cycles, dep.cycles + 1 - dep.stall_cycles);
    }

    #[test]
    fn div_costs_more_than_mul() {
        let muls = exit_prog(vec![
            Instr::Op {
                op: OpOp::Mul,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            8
        ]);
        let divs = exit_prog(vec![
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            8
        ]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            sim.cpu.set_reg(Reg::T1, 100);
            sim.cpu.set_reg(Reg::T2, 7);
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap().stats.cycles
        };
        assert!(run(&divs) > run(&muls) + 8 * 20);
    }

    #[test]
    fn taken_branch_pays_penalty() {
        // Loop 10 times vs straight-line equivalent instruction count.
        let loop_prog = exit_prog(vec![
            addi(Reg::T0, Reg::ZERO, 10),
            addi(Reg::T0, Reg::T0, -1),
            Instr::Branch {
                op: riscv_isa::instr::BranchOp::Bne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: -4,
            },
        ]);
        let mut sim = RocketSim::default();
        load(&mut sim, 0x1000, &loop_prog);
        let report = sim.run(1000).unwrap();
        // 9 taken branches * 2-cycle penalty at least.
        assert!(report.stats.cycles >= report.stats.instret + 9 * 2);
    }

    #[test]
    fn cold_caches_miss_then_warm() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![Instr::NOP; 4]);
        load(&mut sim, 0x1000, &prog);
        let report = sim.run(100).unwrap();
        // All instructions share one line: one compulsory I$ miss. The
        // exiting ecall's fetch is not modelled, so five accesses total.
        assert_eq!(report.stats.icache.misses, 1);
        assert_eq!(report.stats.icache.hits, 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = RocketSim::new(TimingConfig {
                seed,
                ..TimingConfig::default()
            });
            let body: Vec<Instr> = (0..64)
                .map(|i| Instr::Load {
                    op: riscv_isa::instr::LoadOp::Ld,
                    rd: Reg::T0,
                    rs1: Reg::T1,
                    offset: (i % 16) * 8,
                })
                .collect();
            sim.cpu.set_reg(Reg::T1, 0x2000);
            for i in 0..32 {
                sim.cpu.memory.write_u64(0x2000 + i * 8, i).unwrap();
            }
            load(&mut sim, 0x1000, &exit_prog(body));
            sim.run(10_000).unwrap().stats.cycles
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn rdcycle_sees_modelled_time() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            Instr::Csr {
                op: riscv_isa::instr::CsrOp::Csrrs,
                rd: Reg::A0,
                csr: riscv_isa::csr::CYCLE,
                rs1: Reg::ZERO,
            },
            addi(Reg::A0, Reg::A0, 0),
        ]);
        sim.cpu.set_reg(Reg::T1, 10);
        sim.cpu.set_reg(Reg::T2, 3);
        load(&mut sim, 0x1000, &prog);
        // Run and read a0 before exit: patch — run fully, use exit code.
        let prog2 = {
            let mut p = vec![
                Instr::Op {
                    op: OpOp::Divu,
                    rd: Reg::T0,
                    rs1: Reg::T1,
                    rs2: Reg::T2,
                },
                Instr::Csr {
                    op: riscv_isa::instr::CsrOp::Csrrs,
                    rd: Reg::A0,
                    csr: riscv_isa::csr::CYCLE,
                    rs1: Reg::ZERO,
                },
            ];
            p = exit_prog(p);
            p
        };
        let mut sim2 = RocketSim::default();
        sim2.cpu.set_reg(Reg::T1, 10);
        sim2.cpu.set_reg(Reg::T2, 3);
        load(&mut sim2, 0x1000, &prog2);
        let report = sim2.run(100).unwrap();
        // The divider took div_latency cycles, so rdcycle must exceed it.
        assert!(report.exit_code >= 34, "rdcycle saw {}", report.exit_code);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use riscv_isa::instr::{LoadOp, OpImmOp, OpOp};
    use riscv_isa::Instr;

    fn load(sim: &mut RocketSim, base: u64, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(base + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(base);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm { op: OpImmOp::Addi, rd, rs1, imm }
    }

    fn exit_prog(mut body: Vec<Instr>) -> Vec<Instr> {
        body.push(addi(Reg::A7, Reg::ZERO, 93));
        body.push(Instr::Ecall);
        body
    }

    #[test]
    fn pipelined_mul_latency_can_be_hidden() {
        // mul followed by 4 independent instructions costs the same as
        // 5 independent instructions; an immediate consumer stalls.
        let mul = Instr::Op { op: OpOp::Mul, rd: Reg::T0, rs1: Reg::T1, rs2: Reg::T2 };
        let hidden = exit_prog(vec![
            mul,
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::T5, Reg::T6, 1),
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::A0, Reg::T0, 0),
        ]);
        let exposed = exit_prog(vec![mul, addi(Reg::A0, Reg::T0, 0)]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap().stats
        };
        assert_eq!(run(&hidden).stall_cycles, 0, "distance 4 hides the latency");
        assert!(run(&exposed).stall_cycles >= 2, "immediate consumer stalls");
    }

    #[test]
    fn store_then_load_same_line_hits() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![
            Instr::Store { op: riscv_isa::instr::StoreOp::Sd, rs2: Reg::T1, rs1: Reg::T0, offset: 0 },
            Instr::Load { op: LoadOp::Ld, rd: Reg::T2, rs1: Reg::T0, offset: 8 },
        ]);
        sim.cpu.set_reg(Reg::T0, 0x2000);
        sim.cpu.memory.write_u64(0x2008, 5).unwrap();
        load(&mut sim, 0x1000, &prog);
        let report = sim.run(100).unwrap();
        assert_eq!(report.stats.dcache.misses, 1, "write-allocate fills the line");
        assert_eq!(report.stats.dcache.hits, 1, "the load hits the filled line");
    }

    #[test]
    fn sw_plus_hw_equals_total() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![Instr::NOP; 25]);
        load(&mut sim, 0x1000, &prog);
        let report = sim.run(100).unwrap();
        assert_eq!(
            report.stats.sw_cycles + report.stats.hw_cycles,
            report.stats.cycles
        );
    }

    #[test]
    fn a_pending_x0_result_is_malformed() {
        let timing = RocketTiming::new(TimingConfig::default());
        let mut w = ByteWriter::new();
        timing.save(&mut w);
        let mut bytes = w.finish();
        bytes[0] = 1; // ready_at[0], little-endian
        assert_eq!(
            timing.clone().load(&mut ByteReader::new(&bytes)),
            Err(SnapshotError::Malformed("x0 has a pending result"))
        );
    }

    #[test]
    fn instruction_budget_error_propagates() {
        let mut sim = RocketSim::default();
        load(&mut sim, 0x1000, &[Instr::Jal { rd: Reg::ZERO, offset: 0 }]);
        assert!(matches!(
            sim.run(5),
            Err(riscv_sim::CpuError::InstructionLimit(5))
        ));
    }
}
