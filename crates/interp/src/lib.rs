//! # simbench-interp
//!
//! A *fast interpreter* full-system engine, the SimIt-ARM analogue of the
//! paper's evaluation: no code generation, per-instruction decode, a
//! single-entry translation cache per access class ("Single Level Cache"
//! in Fig 4), and interrupt checks at instruction boundaries.
//!
//! Because nothing is cached across executions of the same address, this
//! engine is fast on fresh / self-modifying code (it wins the Code
//! Generation benchmarks, as SimIt-ARM does) and comparatively slow on
//! hot loops (it loses Hot Memory Access and Intra-Page Direct, as
//! SimIt-ARM does).

use std::marker::PhantomData;
use std::time::Instant;

use simbench_core::bus::{Bus, BusEvent};
use simbench_core::cpu::{CpuState, Flags};
use simbench_core::engine::{Engine, EngineInfo, ExitReason, PhaseTracker, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::exec::{step_op, ExecCtx, OpOutcome, Trap};
use simbench_core::fault::{AccessKind, CopFault, ExcInfo, ExceptionKind, FaultKind, MemFault};
use simbench_core::ir::{Decoded, MemSize, Op};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::machine::Machine;
use simbench_core::page_of;
use simbench_core::tlb::SingleEntryCache;

/// How many main-loop iterations between wall-clock limit checks.
/// Iterations, not retired instructions: IRQ-delivery and
/// prefetch-abort iterations retire nothing, and a storm of them must
/// still honor `--wall-limit`.
const WALL_CHECK_PERIOD: u64 = 0x1_0000;

/// The fast interpreter engine.
#[derive(Debug, Default)]
pub struct Interp<I: Isa> {
    icache: SingleEntryCache,
    dcache: SingleEntryCache,
    _isa: PhantomData<I>,
}

impl<I: Isa> Interp<I> {
    /// A fresh interpreter.
    pub fn new() -> Self {
        Interp {
            icache: SingleEntryCache::new(),
            dcache: SingleEntryCache::new(),
            _isa: PhantomData,
        }
    }
}

/// Per-run execution context: machine borrows plus the engine's caches.
struct Ctx<'a, I: Isa, B: Bus> {
    cpu: &'a mut CpuState,
    sys: &'a mut I::Sys,
    bus: &'a mut B,
    dcache: &'a mut SingleEntryCache,
    icache: &'a mut SingleEntryCache,
    counters: &'a mut Counters,
    phase_mark: Option<u8>,
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
        let entry = match self.dcache.lookup(vpage) {
            Some(e) => {
                self.counters.tlb_hits += 1;
                e
            }
            None => {
                self.counters.tlb_misses += 1;
                static OBS_TLB_REFILLS: simbench_obs::Counter =
                    simbench_obs::Counter::new("interp.tlb_refills");
                OBS_TLB_REFILLS.add(1);
                let e = I::walk(self.sys, self.bus, va).map_err(|mut f| {
                    f.access = access;
                    f
                })?;
                self.dcache.insert(e);
                e
            }
        };
        entry.check(va, access, self.cpu.level.is_kernel(), nonpriv)
    }

    fn apply_cop_effect(&mut self, effect: CopEffect) {
        match effect {
            CopEffect::None => {}
            CopEffect::TlbInvPage(va) => {
                self.counters.tlb_invalidate_page += 1;
                let vpage = page_of(va);
                self.dcache.invalidate_page(vpage);
                self.icache.invalidate_page(vpage);
            }
            CopEffect::TlbFlush => {
                self.counters.tlb_flushes += 1;
                self.dcache.flush();
                self.icache.flush();
            }
            CopEffect::ContextChanged => {
                self.dcache.flush();
                self.icache.flush();
            }
        }
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
        let effect = I::cop_write(self.cpu, self.sys, cp, reg, val)?;
        self.apply_cop_effect(effect);
        Ok(())
    }
}

/// Fetch outcome: decoded instruction or the prefetch abort to take.
enum Fetch {
    Ok(Decoded),
    Abort(MemFault),
}

impl<I: Isa> Interp<I> {
    /// Translate for execute and read raw instruction bytes at `pc`.
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
                let entry = match self.icache.lookup(vpage) {
                    Some(e) => {
                        counters.tlb_hits += 1;
                        e
                    }
                    None => {
                        counters.tlb_misses += 1;
                        match I::walk(sys, bus, va) {
                            Ok(e) => {
                                self.icache.insert(e);
                                e
                            }
                            Err(mut f) => {
                                f.access = AccessKind::Execute;
                                // A truncated tail fetch only aborts if the
                                // decoder actually needs those bytes.
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
            // Read up to the end of this page.
            let page_left = (0x1000 - (va & 0xFFF)) as usize;
            let n = page_left.min(want - have);
            let ram = bus.ram();
            if (pa as usize) + n <= ram.len() {
                bytes[have..have + n].copy_from_slice(&ram[pa as usize..pa as usize + n]);
            } else {
                // Executing from MMIO or beyond RAM: architectural abort.
                if have == 0 {
                    return Fetch::Abort(MemFault {
                        addr: pc,
                        access: AccessKind::Execute,
                        kind: FaultKind::BusError,
                    });
                }
                break;
            }
            have += n;
            va = va.wrapping_add(n as u32);
        }
        match I::decode(&bytes[..have], pc) {
            Ok(d) => Fetch::Ok(d),
            // Undecodable: raise Undef via an explicit op so the main loop
            // handles it uniformly. Length is nominal.
            Err(_) => Fetch::Ok(Decoded::new(
                I::MAX_INSN_BYTES as u8,
                [Op::Udf],
                simbench_core::ir::InsnClass::System,
            )),
        }
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Interp<I> {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "interp",
            execution_model: "Fast Interpreter",
            memory_access: "Single Level Cache",
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
        self.icache.flush();
        self.dcache.flush();

        let mut iters: u64 = 0;
        let exit = 'outer: loop {
            if counters.instructions >= limits.max_insns {
                break ExitReason::InsnLimit;
            }
            if iters.is_multiple_of(WALL_CHECK_PERIOD) {
                static OBS_DISPATCH_BATCHES: simbench_obs::Counter =
                    simbench_obs::Counter::new("interp.dispatch_batches");
                OBS_DISPATCH_BATCHES.add(1);
                if let Some(wall) = limits.wall_limit {
                    if t0.elapsed() >= wall {
                        break ExitReason::WallLimit;
                    }
                }
            }
            iters += 1;

            // Interrupt check at every instruction boundary.
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
            let next_pc = pc.wrapping_add(decoded.len as u32);
            let mut ctx = Ctx::<I, B> {
                cpu: &mut m.cpu,
                sys: &mut m.sys,
                bus: &mut m.bus,
                dcache: &mut self.dcache,
                icache: &mut self.icache,
                counters: &mut counters,
                phase_mark: None,
            };

            let mut new_pc = next_pc;
            let mut trap: Option<Trap> = None;
            for op in &decoded.ops {
                ctx.counters.uops += 1;
                match step_op(&mut ctx, op) {
                    OpOutcome::Next => {}
                    OpOutcome::Jump { target, flavor } => {
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

            match trap {
                None => m.cpu.pc = new_pc,
                Some(Trap::Eret) => {
                    m.cpu.pc = I::leave_exception(&mut m.cpu, &mut m.sys);
                }
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

    fn run_flat(asm: ArmletAsm, entry: u32) -> (Machine<Armlet, FlatRam>, RunOutcome) {
        let img = asm.finish(entry);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Interp::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1_000_000));
        (m, out)
    }

    #[test]
    fn arithmetic_loop() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 10);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 3);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 30);
        assert!(out.counters.instructions > 30);
        assert!(out.counters.branch_intra_direct >= 9);
    }

    #[test]
    fn memory_round_trip() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x4000);
        a.mov_imm(PReg::B, 0xCAFE);
        a.store(PReg::B, PReg::A, 8);
        a.load(PReg::C, PReg::A, 8);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[2], 0xCAFE);
        assert_eq!(out.counters.mem_reads, 1);
        assert_eq!(out.counters.mem_writes, 1);
    }

    #[test]
    fn call_and_return() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let f = a.new_label();
        a.mov_imm(PReg::A, 1);
        a.call(f);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 100);
        a.halt();
        a.bind(f);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 10);
        a.ret();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 111);
    }

    #[test]
    fn insn_limit_respected() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let top = a.new_label();
        a.bind(top);
        a.b(top);
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 16));
        let mut e = Interp::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(500));
        assert_eq!(out.exit, ExitReason::InsnLimit);
        assert_eq!(out.counters.instructions, 500);
    }

    #[test]
    fn undef_vectors_to_handler() {
        let mut a = ArmletAsm::new();
        // Vector table at 0: undef vector (index 0) jumps to handler.
        a.org(0);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.mov_imm(PReg::D, 0x77);
        a.eret();
        a.org(0x8000);
        a.mov_imm(PReg::D, 0);
        a.udf();
        a.mov_imm(PReg::E, 0x88); // executed after handler returns
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 0x77, "handler ran");
        assert_eq!(m.cpu.regs[4], 0x88, "resumed after udf");
        assert_eq!(out.counters.undef_insns, 1);
    }

    #[test]
    fn data_fault_vectors_and_resumes() {
        let mut a = ArmletAsm::new();
        a.org(0);
        // Vector index 2 (data abort) at 0x40.
        a.skip(0x40);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.mov_imm(PReg::D, 1);
        a.eret();
        a.org(0x8000);
        // Load from beyond RAM (1 MB flat): bus error → data abort.
        a.mov_imm(PReg::A, 0x0800_0000);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 1);
        assert_eq!(out.counters.data_faults, 1);
    }

    #[test]
    fn non_retiring_storm_honors_wall_limit() {
        use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS};
        use simbench_platform::devices::{INTC_ENABLE, INTC_TRIGGER};
        use simbench_platform::{Platform, INTC_BASE};
        use std::time::Duration;
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        // Unmask and raise INTC line 0.
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
        let mut e = Interp::<Armlet>::new();
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
    fn fetch_path_counts_tlb_probes() {
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
        tb.map_section(0, 0, Access::KernelOnly); // identity map code
        let (load_at, blob) = tb.into_blob();
        img.push_section(load_at, blob);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 21));
        let mut e = Interp::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(out.exit, ExitReason::Halted);
        // No loads or stores after the MMU comes on, so every TLB probe
        // below comes from the fetch path.
        assert_eq!(out.counters.mem_reads, 0);
        assert_eq!(out.counters.mem_writes, 0);
        assert!(out.counters.tlb_misses >= 1, "first fetch walks");
        assert!(out.counters.tlb_hits >= 2, "later fetches hit the icache");
    }

    #[test]
    fn syscall_number_reaches_handler_via_resume() {
        let mut a = ArmletAsm::new();
        a.org(0);
        // Syscall vector index 1 at 0x20.
        a.skip(0x20);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.alu_ri(AluOp::Add, PReg::C, PReg::C, 1);
        a.eret();
        a.org(0x8000);
        a.mov_imm(PReg::C, 0);
        a.svc(42);
        a.svc(43);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[2], 2);
        assert_eq!(out.counters.syscalls, 2);
    }
}
