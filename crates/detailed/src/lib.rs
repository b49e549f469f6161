//! # simbench-detailed
//!
//! A *detailed* (timing) interpreter — the Gem5 analogue of the paper's
//! evaluation. Every instruction is re-decoded through the full decoder,
//! fetched through a modelled L1 instruction cache, and its data
//! accesses charged through a modelled TLB and L1 data cache with LRU
//! bookkeeping; the engine accumulates a simulated cycle count. All of
//! that per-instruction work is *why* detailed simulators are orders of
//! magnitude slower than fast interpreters — the same reason the paper
//! gives for Gem5's Code Generation numbers ("the Gem5 interpreter is
//! much more detailed in nature than that of SimIt-ARM").
//!
//! Mirroring the paper's Fig 7 footnote ("† functionality is not
//! implemented in the Gem5 simulator"), this engine can be configured
//! with unimplemented physical pages; touching one ends the run with
//! [`ExitReason::Unsupported`]. The harness marks the interrupt
//! controller and the safe MMIO device as unimplemented, so the External
//! Software Interrupt and Memory Mapped Device benchmarks report "-" on
//! this engine, exactly as in the paper.

pub mod cachemodel;
pub mod timing;

use std::marker::PhantomData;
use std::time::Instant;

use simbench_core::bus::{Bus, BusEvent};
use simbench_core::cpu::{CpuState, Flags};
use simbench_core::engine::{Engine, EngineInfo, ExitReason, PhaseTracker, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::exec::{step_op, ExecCtx, OpOutcome, Trap};
use simbench_core::fault::{AccessKind, CopFault, ExcInfo, ExceptionKind, FaultKind, MemFault};
use simbench_core::ir::{Decoded, InsnClass, MemSize, Op};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::machine::Machine;
use simbench_core::page_of;
use simbench_core::tlb::SetAssocTlb;

use cachemodel::{CacheModel, PipelineStats};
use timing::{BranchPredictor, Latencies, Scoreboard};

/// Main-loop iterations between wall-clock checks. Iterations, not
/// retired instructions: IRQ-delivery and prefetch-abort iterations
/// retire nothing, and a storm of them must still honor `--wall-limit`.
const WALL_CHECK_PERIOD: u64 = 0x4000;

/// Timing parameters of the modelled core.
#[derive(Debug, Clone, Copy)]
pub struct TimingConfig {
    /// Cycles per decoded instruction (front end).
    pub decode_cycles: u64,
    /// Cycles per executed micro-op.
    pub op_cycles: u64,
    /// Cycles for a TLB walk.
    pub walk_cycles: u64,
    /// Redirect penalty per taken branch.
    pub branch_cycles: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            decode_cycles: 1,
            op_cycles: 1,
            walk_cycles: 30,
            branch_cycles: 2,
        }
    }
}

/// The detailed timing engine.
#[derive(Debug)]
pub struct Detailed<I: Isa> {
    timing: TimingConfig,
    tlb: SetAssocTlb,
    icache: CacheModel,
    dcache: CacheModel,
    l2: CacheModel,
    scoreboard: Scoreboard,
    bpred: BranchPredictor,
    stats: PipelineStats,
    /// Physical pages the model has no device implementation for.
    unimplemented_pages: Vec<u32>,
    /// Per-class retirement histogram (part of the detailed bookkeeping).
    class_histogram: [u64; 5],
    _isa: PhantomData<I>,
}

impl<I: Isa> Default for Detailed<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Isa> Detailed<I> {
    /// An engine with default timing and everything implemented.
    pub fn new() -> Self {
        Detailed {
            timing: TimingConfig::default(),
            tlb: SetAssocTlb::new(16, 4),
            icache: CacheModel::new(32 << 10, 4, 64, 1, 12),
            dcache: CacheModel::new(32 << 10, 4, 64, 2, 12),
            l2: CacheModel::new(256 << 10, 8, 64, 10, 80),
            scoreboard: Scoreboard::new(Latencies::default()),
            bpred: BranchPredictor::new(12, Latencies::default().mispredict),
            stats: PipelineStats::default(),
            unimplemented_pages: Vec::new(),
            class_histogram: [0; 5],
            _isa: PhantomData,
        }
    }

    /// Mark physical pages as having no device model: any access ends the
    /// run as [`ExitReason::Unsupported`].
    pub fn with_unimplemented_pages(mut self, pages: &[u32]) -> Self {
        self.unimplemented_pages = pages.to_vec();
        self
    }

    /// Accumulated pipeline statistics.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.stats
    }

    /// Retired-instruction histogram by [`InsnClass`].
    pub fn class_histogram(&self) -> [u64; 5] {
        self.class_histogram
    }
}

struct Ctx<'a, I: Isa, B: Bus> {
    cpu: &'a mut CpuState,
    sys: &'a mut I::Sys,
    bus: &'a mut B,
    tlb: &'a mut SetAssocTlb,
    dcache: &'a mut CacheModel,
    l2: &'a mut CacheModel,
    scoreboard: &'a mut Scoreboard,
    stats: &'a mut PipelineStats,
    /// Memory latency of the current op, consumed by the scoreboard.
    mem_cycles: u64,
    timing: TimingConfig,
    counters: &'a mut Counters,
    unimplemented_pages: &'a [u32],
    phase_mark: Option<u8>,
    unsupported: bool,
}

impl<I: Isa, B: Bus> Ctx<'_, I, B> {
    fn translate_data(
        &mut self,
        va: u32,
        size: MemSize,
        access: AccessKind,
        nonpriv: bool,
    ) -> Result<u32, MemFault> {
        if !size.aligned(va) {
            return Err(MemFault {
                addr: va,
                access,
                kind: FaultKind::Unaligned,
            });
        }
        if !I::mmu_enabled(self.sys) {
            return Ok(va);
        }
        let vpage = page_of(va);
        let entry = match self.tlb.lookup(vpage) {
            Some(e) => {
                self.counters.tlb_hits += 1;
                e
            }
            None => {
                self.counters.tlb_misses += 1;
                self.stats.tlb_stall += self.timing.walk_cycles;
                self.stats.cycles += self.timing.walk_cycles;
                let e = I::walk(self.sys, self.bus, va).map_err(|mut f| {
                    f.access = access;
                    f
                })?;
                self.tlb.insert(e);
                e
            }
        };
        entry.check(va, access, self.cpu.level.is_kernel(), nonpriv)
    }

    fn charge_data(&mut self, pa: u32) {
        let mut cycles = self.dcache.access(pa);
        if cycles > self.dcache.hit_cycles {
            // L1 miss: model the L2 access (and implicit DRAM on L2 miss).
            cycles += self.l2.access(pa);
            self.stats.dcache_stall += cycles - self.dcache.hit_cycles;
        }
        self.stats.cycles += cycles;
        self.mem_cycles += cycles;
    }

    fn check_implemented(&mut self, pa: u32) -> bool {
        if self.unimplemented_pages.contains(&page_of(pa)) {
            self.unsupported = true;
            return false;
        }
        true
    }
}

impl<I: Isa, B: Bus> ExecCtx for Ctx<'_, I, B> {
    fn reg(&self, r: u8) -> u32 {
        self.cpu.regs[r as usize]
    }
    fn set_reg(&mut self, r: u8, v: u32) {
        self.cpu.regs[r as usize] = v;
    }
    fn flags(&self) -> Flags {
        self.cpu.flags
    }
    fn set_flags(&mut self, f: Flags) {
        self.cpu.flags = f;
    }
    fn privileged(&self) -> bool {
        self.cpu.level.is_kernel()
    }

    fn read(&mut self, va: u32, size: MemSize, nonpriv: bool) -> Result<u32, MemFault> {
        self.counters.mem_reads += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let pa = self.translate_data(va, size, AccessKind::Read, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
            if !self.check_implemented(pa) {
                // Unsupported device: return a dummy value; the run loop
                // terminates before architectural state can diverge.
                return Ok(0);
            }
        } else {
            self.charge_data(pa);
        }
        self.bus.read(pa, size).map_err(|mut f| {
            f.addr = va;
            f
        })
    }

    fn write(&mut self, va: u32, val: u32, size: MemSize, nonpriv: bool) -> Result<(), MemFault> {
        self.counters.mem_writes += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let pa = self.translate_data(va, size, AccessKind::Write, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
            if !self.check_implemented(pa) {
                return Ok(());
            }
        } else {
            self.charge_data(pa);
        }
        match self.bus.write(pa, val, size) {
            Ok(Some(BusEvent::PhaseMark(m))) => {
                self.phase_mark = Some(m);
                Ok(())
            }
            Ok(_) => Ok(()),
            Err(mut f) => {
                f.addr = va;
                Err(f)
            }
        }
    }

    fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        self.counters.coproc_accesses += 1;
        I::cop_read(self.cpu, self.sys, cp, reg)
    }

    fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault> {
        self.counters.coproc_accesses += 1;
        match I::cop_write(self.cpu, self.sys, cp, reg, val)? {
            CopEffect::None => {}
            CopEffect::TlbInvPage(va) => {
                self.counters.tlb_invalidate_page += 1;
                self.tlb.invalidate_page(page_of(va));
            }
            CopEffect::TlbFlush => {
                self.counters.tlb_flushes += 1;
                self.tlb.flush();
            }
            CopEffect::ContextChanged => self.tlb.flush(),
        }
        Ok(())
    }
}

enum Fetch {
    Ok(Decoded),
    Abort(MemFault),
}

impl<I: Isa> Detailed<I> {
    fn fetch<B: Bus>(
        &mut self,
        cpu: &CpuState,
        sys: &mut I::Sys,
        bus: &mut B,
        counters: &mut Counters,
        pc: u32,
    ) -> Fetch {
        let mut bytes = [0u8; 8];
        let mut have = 0usize;
        let want = I::MAX_INSN_BYTES;
        let mut va = pc;
        while have < want {
            let pa = if !I::mmu_enabled(sys) {
                va
            } else {
                let vpage = page_of(va);
                let entry = match self.tlb.lookup(vpage) {
                    Some(e) => {
                        counters.tlb_hits += 1;
                        e
                    }
                    None => {
                        counters.tlb_misses += 1;
                        self.stats.tlb_stall += self.timing.walk_cycles;
                        self.stats.cycles += self.timing.walk_cycles;
                        match I::walk(sys, bus, va) {
                            Ok(e) => {
                                self.tlb.insert(e);
                                e
                            }
                            Err(mut f) => {
                                f.access = AccessKind::Execute;
                                if have > 0 {
                                    break;
                                }
                                return Fetch::Abort(f);
                            }
                        }
                    }
                };
                match entry.check(va, AccessKind::Execute, cpu.level.is_kernel(), false) {
                    Ok(pa) => pa,
                    Err(f) => {
                        if have > 0 {
                            break;
                        }
                        return Fetch::Abort(f);
                    }
                }
            };
            // Charge the instruction cache (L2 behind it on a miss).
            let mut cycles = self.icache.access(pa);
            if cycles > self.icache.hit_cycles {
                cycles += self.l2.access(pa);
                self.stats.icache_stall += cycles - self.icache.hit_cycles;
            }
            self.stats.cycles += cycles;
            let page_left = (0x1000 - (va & 0xFFF)) as usize;
            let n = page_left.min(want - have);
            let ram = bus.ram();
            if (pa as usize) + n > ram.len() {
                if have == 0 {
                    return Fetch::Abort(MemFault {
                        addr: pc,
                        access: AccessKind::Execute,
                        kind: FaultKind::BusError,
                    });
                }
                break;
            }
            bytes[have..have + n].copy_from_slice(&ram[pa as usize..pa as usize + n]);
            have += n;
            va = va.wrapping_add(n as u32);
        }
        match I::decode(&bytes[..have], pc) {
            Ok(d) => Fetch::Ok(d),
            Err(_) => Fetch::Ok(Decoded::new(
                I::MAX_INSN_BYTES as u8,
                [Op::Udf],
                InsnClass::System,
            )),
        }
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Detailed<I> {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "detailed",
            execution_model: "Interpreter",
            memory_access: "Modelled TLB",
            code_generation: "None",
            control_flow_inter: "Interpreted",
            control_flow_intra: "Interpreted",
            interrupts: "Insn. Boundaries",
            sync_exceptions: "Interpreted",
            undef_insn: "Interpreted",
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        let t0 = Instant::now();
        let mut counters = Counters::default();
        let mut phase = PhaseTracker::new();
        self.tlb.flush();
        self.icache.flush();
        self.dcache.flush();
        self.l2.flush();
        self.scoreboard.reset();

        let mut iters: u64 = 0;
        let exit = 'outer: loop {
            if counters.instructions >= limits.max_insns {
                break ExitReason::InsnLimit;
            }
            if let Some(wall) = limits.wall_limit {
                if iters.is_multiple_of(WALL_CHECK_PERIOD) && t0.elapsed() >= wall {
                    break ExitReason::WallLimit;
                }
            }
            iters += 1;

            if m.cpu.irq_enabled && m.bus.irq_pending() {
                counters.irqs_delivered += 1;
                let resume = m.cpu.pc;
                let vec = I::enter_exception(
                    &mut m.cpu,
                    &mut m.sys,
                    ExceptionKind::Irq,
                    ExcInfo::default(),
                    resume,
                );
                m.cpu.pc = vec;
                continue;
            }

            let pc = m.cpu.pc;
            let decoded = match self.fetch(&m.cpu, &mut m.sys, &mut m.bus, &mut counters, pc) {
                Fetch::Ok(d) => d,
                Fetch::Abort(f) => {
                    counters.insn_faults += 1;
                    let vec = I::enter_exception(
                        &mut m.cpu,
                        &mut m.sys,
                        ExceptionKind::PrefetchAbort,
                        ExcInfo::from_fault(f),
                        pc,
                    );
                    m.cpu.pc = vec;
                    continue;
                }
            };

            counters.instructions += 1;
            self.stats.cycles += self.timing.decode_cycles;
            self.class_histogram[match decoded.class {
                InsnClass::Alu => 0,
                InsnClass::Mem => 1,
                InsnClass::Branch => 2,
                InsnClass::System => 3,
                InsnClass::Nop => 4,
            }] += 1;

            let next_pc = pc.wrapping_add(decoded.len as u32);
            let mut ctx = Ctx::<I, B> {
                cpu: &mut m.cpu,
                sys: &mut m.sys,
                bus: &mut m.bus,
                tlb: &mut self.tlb,
                dcache: &mut self.dcache,
                l2: &mut self.l2,
                scoreboard: &mut self.scoreboard,
                stats: &mut self.stats,
                mem_cycles: 0,
                timing: self.timing,
                counters: &mut counters,
                unimplemented_pages: &self.unimplemented_pages,
                phase_mark: None,
                unsupported: false,
            };

            let mut new_pc = next_pc;
            let mut trap: Option<Trap> = None;
            for op in &decoded.ops {
                ctx.counters.uops += 1;
                ctx.stats.cycles += ctx.timing.op_cycles;
                ctx.mem_cycles = 0;
                let outcome = step_op(&mut ctx, op);
                // In-order issue through the scoreboard (operand stalls,
                // unit latencies, memory latency from the cache model).
                let extra = ctx.mem_cycles;
                ctx.stats.cycles += ctx.scoreboard.issue(op, extra);
                if let Op::BranchCond { .. } = op {
                    let taken = matches!(outcome, OpOutcome::Jump { .. });
                    let penalty = self.bpred.observe(pc, taken);
                    ctx.stats.cycles += penalty;
                    ctx.stats.branch_penalty += penalty;
                }
                match outcome {
                    OpOutcome::Next => {
                        if ctx.unsupported {
                            break;
                        }
                    }
                    OpOutcome::Jump { target, flavor } => {
                        ctx.stats.cycles += ctx.timing.branch_cycles;
                        ctx.stats.branch_penalty += ctx.timing.branch_cycles;
                        ctx.counters.count_branch(pc, target, flavor);
                        new_pc = target;
                        break;
                    }
                    OpOutcome::Trap(t) => {
                        trap = Some(t);
                        break;
                    }
                    OpOutcome::Halt => break 'outer ExitReason::Halted,
                }
            }
            let mark = ctx.phase_mark.take();
            let unsupported = ctx.unsupported;

            if unsupported {
                break ExitReason::Unsupported("no device model for accessed page");
            }

            match trap {
                None => m.cpu.pc = new_pc,
                Some(Trap::Eret) => m.cpu.pc = I::leave_exception(&mut m.cpu, &mut m.sys),
                Some(Trap::Syscall(n)) => {
                    counters.syscalls += 1;
                    let vec = I::enter_exception(
                        &mut m.cpu,
                        &mut m.sys,
                        ExceptionKind::Syscall,
                        ExcInfo::syscall(n),
                        next_pc,
                    );
                    m.cpu.pc = vec;
                }
                Some(Trap::Undef) => {
                    counters.undef_insns += 1;
                    let vec = I::enter_exception(
                        &mut m.cpu,
                        &mut m.sys,
                        ExceptionKind::Undef,
                        ExcInfo::default(),
                        next_pc,
                    );
                    m.cpu.pc = vec;
                }
                Some(Trap::DataFault(f)) => {
                    counters.data_faults += 1;
                    let vec = I::enter_exception(
                        &mut m.cpu,
                        &mut m.sys,
                        ExceptionKind::DataAbort,
                        ExcInfo::from_fault(f),
                        next_pc,
                    );
                    m.cpu.pc = vec;
                }
            }

            if let Some(mark) = mark {
                phase.on_mark(mark, &counters);
            }
        };

        RunOutcome {
            exit,
            wall: t0.elapsed(),
            counters,
            kernel: phase.into_kernel(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::asm::{PReg, PortableAsm};
    use simbench_core::bus::FlatRam;
    use simbench_core::ir::AluOp;
    use simbench_isa_armlet::{Armlet, ArmletAsm};

    #[test]
    fn computes_and_accumulates_cycles() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 100);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 2);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1_000_000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 200);
        let stats = e.pipeline_stats();
        assert!(
            stats.cycles > out.counters.instructions,
            "timing model charges cycles"
        );
        assert!(stats.branch_penalty > 0);
        let hist = e.class_histogram();
        assert!(
            hist[0] > 0 && hist[2] > 0,
            "histogram tracks ALU and branches"
        );
    }

    #[test]
    fn unimplemented_page_reports_unsupported() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x9_0000);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let img = a.finish(0x8000);
        // 1 MB RAM; pretend page 0x90 is an unimplemented device by
        // marking it (even though it is RAM in this fixture, the check is
        // on physical page identity).
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new().with_unimplemented_pages(&[0x90]);
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(
            out.exit,
            ExitReason::Halted,
            "RAM pages are always implemented"
        );
        // Now route the access through MMIO space instead.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0xF000_3000u32);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let img = a.finish(0x8000);
        let p = simbench_platform::Platform::with_ram(1 << 20);
        let mut m = Machine::<Armlet, _>::boot(&img, p);
        let mut e = Detailed::<Armlet>::new().with_unimplemented_pages(&[0xF000_3000 >> 12]);
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert!(matches!(out.exit, ExitReason::Unsupported(_)));
    }

    #[test]
    fn cold_loop_has_tlb_and_cache_misses_flat() {
        // Touch many distinct lines: dcache misses accumulate.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x10000);
        a.mov_imm(PReg::B, 256);
        let top = a.new_label();
        a.bind(top);
        a.load(PReg::C, PReg::A, 0);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 64);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(100_000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert!(
            e.pipeline_stats().dcache_stall >= 250 * 23,
            "each new line misses"
        );
    }

    #[test]
    fn non_retiring_storm_honors_wall_limit() {
        use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS};
        use simbench_platform::devices::{INTC_ENABLE, INTC_TRIGGER};
        use simbench_platform::{Platform, INTC_BASE};
        use std::time::Duration;
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, INTC_BASE + INTC_ENABLE);
        a.mov_imm(PReg::B, 1);
        a.store(PReg::B, PReg::A, 0);
        a.mov_imm(PReg::A, INTC_BASE + INTC_TRIGGER);
        a.store(PReg::B, PReg::A, 0);
        // Vector table beyond RAM: the IRQ handler can never fetch, so
        // delivery degenerates into a prefetch-abort storm in which no
        // iteration retires an instruction.
        a.mov_imm(PReg::C, 0x0800_0000);
        a.mcr(CP_SYS, cp15::VBAR, PReg::C);
        a.mcr(CP_BANK, cp14::IRQ_CTL, PReg::B);
        a.nop();
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, Platform::with_ram(1 << 20));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(
            &mut m,
            &RunLimits {
                max_insns: u64::MAX,
                wall_limit: Some(Duration::from_millis(30)),
            },
        );
        assert_eq!(out.exit, ExitReason::WallLimit);
        assert_eq!(out.counters.irqs_delivered, 1);
        assert!(out.counters.insn_faults > 0, "abort storm was spinning");
    }

    #[test]
    fn fetch_path_counts_tlb_hits() {
        use simbench_isa_armlet::sys::{cp15, CP_SYS};
        use simbench_isa_armlet::{Access, TableBuilder};
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x0010_0000);
        a.mcr(CP_SYS, cp15::TTBR, PReg::A);
        a.mov_imm(PReg::B, 1);
        a.mcr(CP_SYS, cp15::SCTLR, PReg::B); // MMU on
        a.nop();
        a.nop();
        a.nop();
        a.halt();
        let mut img = a.finish(0x8000);
        let mut tb = TableBuilder::new(0x0010_0000);
        tb.map_section(0, 0, Access::KernelOnly);
        let (load_at, blob) = tb.into_blob();
        img.push_section(load_at, blob);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 21));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(out.exit, ExitReason::Halted);
        // No loads or stores after the MMU comes on, so every TLB probe
        // below comes from the fetch path.
        assert_eq!(out.counters.mem_reads, 0);
        assert_eq!(out.counters.mem_writes, 0);
        assert!(out.counters.tlb_misses >= 1, "first fetch walks");
        assert!(out.counters.tlb_hits >= 2, "later fetches hit the TLB");
    }
}
