//! # simbench-virt
//!
//! A hardware-assisted-virtualization cost-model engine — the QEMU-KVM
//! analogue of the paper's evaluation — plus a `native` configuration
//! standing in for the bare-metal hardware rows of Fig 7 (see the
//! substitution notes in `DESIGN.md`).
//!
//! Guest code executes on a *direct* fast path: each instruction is
//! decoded once and cached by physical address (the hardware's decoder),
//! and address translation uses a large, cheap "hardware TLB". The
//! decode cache is a directory indexed by physical page number pointing
//! at pooled per-page tables, so a fetch costs three array reads and a
//! copy, and a warm engine never allocates.
//!
//! Sensitive operations — MMIO, coprocessor accesses, undefined
//! instructions, interrupt injection — trigger simulated **VM exits**
//! with a configurable latency, reproducing the trap-and-emulate costs
//! the paper highlights for the External Software Interrupt and Memory
//! Mapped Device benchmarks. The `native` configuration runs the same
//! engine with zero exit cost.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use simbench_core::bus::{Bus, BusEvent};
use simbench_core::cpu::{CpuState, Flags};
use simbench_core::engine::{Engine, EngineInfo, ExitReason, PhaseTracker, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::exec::{step_op, ExecCtx, OpOutcome, Trap};
use simbench_core::fault::{AccessKind, CopFault, ExcInfo, ExceptionKind, FaultKind, MemFault};
use simbench_core::ir::{Decoded, MemSize, Op, MAX_OPS_PER_INSN};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::machine::Machine;
use simbench_core::tlb::DirectTlb;
use simbench_core::{page_of, PAGE_SIZE};

/// Main-loop iterations between wall-clock checks. Iterations, not
/// retired instructions: IRQ-delivery and prefetch-abort iterations
/// retire nothing, and a storm of them must still honor `--wall-limit`.
const WALL_CHECK_PERIOD: u64 = 0x2_0000;

/// Configuration of the virtualization layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtConfig {
    /// Engine display name.
    pub name: &'static str,
    /// Simulated cost of one VM exit, in nanoseconds (busy-waited, the
    /// honest stand-in for a world switch we cannot perform).
    pub exit_cost_ns: u32,
    /// MMIO accesses exit to the hypervisor.
    pub mmio_exits: bool,
    /// Coprocessor accesses exit to the hypervisor.
    pub coproc_exits: bool,
    /// Undefined instructions exit (the paper's "Hypercall" row).
    pub undef_exits: bool,
    /// Interrupt injection exits.
    pub irq_exits: bool,
}

impl VirtConfig {
    /// KVM-like: traps cost ~1.5 µs.
    pub fn kvm() -> Self {
        VirtConfig {
            name: "virt",
            exit_cost_ns: 1500,
            mmio_exits: true,
            coproc_exits: true,
            undef_exits: true,
            irq_exits: true,
        }
    }

    /// Native hardware stand-in: the same direct execution path with
    /// zero exit cost.
    pub fn native() -> Self {
        VirtConfig {
            name: "native",
            exit_cost_ns: 0,
            mmio_exits: false,
            coproc_exits: false,
            undef_exits: false,
            irq_exits: false,
        }
    }
}

/// Decoded instructions of one physical page (the hardware front-end's
/// decoded-instruction cache for that page).
#[derive(Debug)]
struct PageCode {
    /// Per byte offset: 0 if empty, `i + 1` if `code[i]` decodes there.
    slots: Box<[u16; PAGE_SIZE as usize]>,
    /// The page's decodes with their byte offsets, so a reset clears
    /// only the slots in use.
    code: Vec<(u16, Decoded)>,
}

impl PageCode {
    fn reset(&mut self) {
        for &(off, _) in &self.code {
            self.slots[off as usize] = 0;
        }
        self.code.clear();
    }
}

/// Decode cache by physical address, coherent with stores like an
/// icache: a store to a page that holds decodes drops them all.
///
/// Dropping a page's decodes, and the reset at run start, empty its
/// table in place and put it on a free list for the next page, so
/// tables are never freed and a warm engine never allocates.
#[derive(Debug, Default)]
struct CodeCache {
    /// Per physical page number, up to the highest page fetched: 0 if
    /// the page holds no decodes, else its table id + 1.
    dir: Vec<u32>,
    tables: Vec<PageCode>,
    /// Ids of empty tables.
    free: Vec<u32>,
}

impl CodeCache {
    #[inline]
    fn table_of(&self, ppage: u32) -> Option<usize> {
        match self.dir.get(ppage as usize) {
            Some(&t) if t != 0 => Some(t as usize - 1),
            _ => None,
        }
    }

    /// True if the physical page holds decodes.
    #[inline]
    fn holds(&self, ppage: u32) -> bool {
        self.table_of(ppage).is_some()
    }

    /// The decode cached at physical address `pa`.
    #[inline]
    fn get(&self, pa: u32) -> Option<Decoded> {
        let t = &self.tables[self.table_of(page_of(pa))?];
        match t.slots[(pa & (PAGE_SIZE - 1)) as usize] {
            0 => None,
            i => Some(t.code[i as usize - 1].1),
        }
    }

    /// Cache `d` at physical address `pa`, which must hold no decode.
    fn insert(&mut self, pa: u32, d: Decoded) {
        let ppage = page_of(pa) as usize;
        if ppage >= self.dir.len() {
            self.dir.resize(ppage + 1, 0); // lint:allow(hot-path): grows once to the highest code page
        }
        let id = match self.dir[ppage] {
            0 => {
                let id = self.take_table();
                self.dir[ppage] = id as u32 + 1;
                id
            }
            t => t as usize - 1,
        };
        let off = (pa & (PAGE_SIZE - 1)) as u16;
        let t = &mut self.tables[id];
        t.code.push((off, d)); // lint:allow(hot-path): grows only until the table is warm
        t.slots[off as usize] = t.code.len() as u16;
    }

    /// An empty table: a free one, or a new one while the pool grows.
    fn take_table(&mut self) -> usize {
        if let Some(id) = self.free.pop() {
            return id as usize;
        }
        // lint:allow(hot-path): the pool grows to the most code pages live at once
        let slots = Box::new([0; PAGE_SIZE as usize]);
        self.tables.push(PageCode {
            slots,
            code: Vec::new(),
        });
        // Room for every table on the free list, so freeing never allocates.
        self.free.reserve(self.tables.len());
        self.tables.len() - 1
    }

    /// Drop the physical page's decodes.
    fn invalidate(&mut self, ppage: u32) {
        if let Some(id) = self.table_of(ppage) {
            self.dir[ppage as usize] = 0;
            self.tables[id].reset();
            self.free.push(id as u32);
        }
    }

    /// Drop every decode.
    fn clear(&mut self) {
        for ppage in 0..self.dir.len() as u32 {
            self.invalidate(ppage);
        }
    }
}

/// The virtualization / native engine.
#[derive(Debug)]
pub struct Virt<I: Isa> {
    cfg: VirtConfig,
    /// "Hardware" TLB: large and cheap.
    tlb: DirectTlb,
    /// Decoded-instruction cache (the hardware front-end).
    code: CodeCache,
    _isa: PhantomData<I>,
}

impl<I: Isa> Virt<I> {
    /// A KVM-configured engine.
    pub fn kvm() -> Self {
        Self::with_config(VirtConfig::kvm())
    }

    /// A native-configured engine.
    pub fn native() -> Self {
        Self::with_config(VirtConfig::native())
    }

    /// An engine with an explicit configuration.
    pub fn with_config(cfg: VirtConfig) -> Self {
        Virt {
            cfg,
            tlb: DirectTlb::new(4096),
            code: CodeCache::default(),
            _isa: PhantomData,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &VirtConfig {
        &self.cfg
    }
}

/// Busy-wait approximating one VM exit's world-switch latency.
#[inline]
fn spin_exit(cost_ns: u32) {
    if cost_ns == 0 {
        return;
    }
    let cost = Duration::from_nanos(cost_ns.into());
    let t0 = Instant::now();
    while t0.elapsed() < cost {
        std::hint::spin_loop();
    }
}

/// Fixed-capacity set of physical pages whose cached decodes one
/// instruction's op list dirtied. Each op performs at most one store,
/// so [`MAX_OPS_PER_INSN`] bounds the set — no heap, and no page is
/// lost when a single op list stores into several code-holding pages.
#[derive(Debug, Clone, Copy, Default)]
struct DirtyCodePages {
    pages: [u32; MAX_OPS_PER_INSN],
    len: usize,
}

impl DirtyCodePages {
    fn push(&mut self, ppage: u32) {
        if !self.as_slice().contains(&ppage) {
            self.pages[self.len] = ppage;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[u32] {
        &self.pages[..self.len]
    }
}

struct Ctx<'a, I: Isa, B: Bus> {
    cpu: &'a mut CpuState,
    sys: &'a mut I::Sys,
    bus: &'a mut B,
    tlb: &'a mut DirectTlb,
    counters: &'a mut Counters,
    cfg: VirtConfig,
    phase_mark: Option<u8>,
    /// Physical pages whose decoded instructions a store dirtied.
    code_write: DirtyCodePages,
    /// The decode cache (read-only coherency check).
    code: &'a CodeCache,
}

impl<I: Isa, B: Bus> Ctx<'_, I, B> {
    fn vm_exit(&mut self) {
        self.counters.vm_exits += 1;
        spin_exit(self.cfg.exit_cost_ns);
    }

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
            if self.cfg.mmio_exits {
                self.vm_exit();
            }
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
            if self.cfg.mmio_exits {
                self.vm_exit();
            }
        }
        match self.bus.write(pa, val, size) {
            Ok(Some(BusEvent::PhaseMark(m))) => self.phase_mark = Some(m),
            Ok(_) => {}
            Err(mut f) => {
                f.addr = va;
                return Err(f);
            }
        }
        // Instruction-cache coherency: dirty pages with cached decodes.
        let ppage = page_of(pa);
        if self.code.holds(ppage) {
            self.code_write.push(ppage);
        }
        Ok(())
    }

    fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        self.counters.coproc_accesses += 1;
        if self.cfg.coproc_exits {
            self.vm_exit();
        }
        I::cop_read(self.cpu, self.sys, cp, reg)
    }

    fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault> {
        self.counters.coproc_accesses += 1;
        if self.cfg.coproc_exits {
            self.vm_exit();
        }
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

/// The explicit `Udf` of nominal length that stands for an undecodable
/// instruction, so the main loop raises Undef uniformly.
fn undecodable<I: Isa>() -> Decoded {
    Decoded::new(
        I::MAX_INSN_BYTES as u8,
        [Op::Udf],
        simbench_core::ir::InsnClass::System,
    )
}

impl<I: Isa> Virt<I> {
    /// Translate `va` for execute through the hardware TLB.
    fn translate_exec<B: Bus>(
        &mut self,
        cpu: &CpuState,
        sys: &mut I::Sys,
        bus: &mut B,
        counters: &mut Counters,
        va: u32,
    ) -> Result<u32, MemFault> {
        if !I::mmu_enabled(sys) {
            return Ok(va);
        }
        let entry = match self.tlb.lookup(page_of(va)) {
            Some(e) => {
                counters.tlb_hits += 1;
                e
            }
            None => {
                counters.tlb_misses += 1;
                let e = I::walk(sys, bus, va).map_err(|mut f| {
                    f.access = AccessKind::Execute;
                    f
                })?;
                self.tlb.insert(e);
                e
            }
        };
        entry.check(va, AccessKind::Execute, cpu.level.is_kernel(), false)
    }

    /// Translate a fetch and return the decoded instruction at `pc`,
    /// decoding and caching it on first touch.
    fn fetch<B: Bus>(
        &mut self,
        cpu: &CpuState,
        sys: &mut I::Sys,
        bus: &mut B,
        counters: &mut Counters,
        pc: u32,
    ) -> Result<Decoded, MemFault> {
        let pa = self.translate_exec(cpu, sys, bus, counters, pc)?;
        if let Some(d) = self.code.get(pa) {
            return Ok(d);
        }
        // Decode from RAM (instruction fetch from MMIO is a bus error),
        // reading no further than the end of the page.
        let ram = bus.ram();
        if pa as usize >= ram.len() {
            return Err(MemFault {
                addr: pc,
                access: AccessKind::Execute,
                kind: FaultKind::BusError,
            });
        }
        let page_left = (PAGE_SIZE - (pa & (PAGE_SIZE - 1))) as usize;
        let end = (pa as usize + I::MAX_INSN_BYTES.min(page_left)).min(ram.len());
        let decoded = match I::decode(&ram[pa as usize..end], pc) {
            Ok(d) => d,
            // Cut short by the page end, not by the end of RAM: the
            // instruction may continue on the next page.
            Err(_) if page_left < I::MAX_INSN_BYTES && end - pa as usize == page_left => {
                return Ok(self.fetch_straddling(cpu, sys, bus, counters, pc, pa));
            }
            Err(_) => undecodable::<I>(),
        };
        self.code.insert(pa, decoded);
        Ok(decoded)
    }

    /// Decode an instruction that may run past the end of its page. The
    /// tail bytes come through their own translation, as in the
    /// interpreter, and the decode is not cached: a store to the tail
    /// page would not invalidate it.
    #[cold]
    fn fetch_straddling<B: Bus>(
        &mut self,
        cpu: &CpuState,
        sys: &mut I::Sys,
        bus: &mut B,
        counters: &mut Counters,
        pc: u32,
        pa: u32,
    ) -> Decoded {
        let mut bytes = [0u8; 8];
        let head = (PAGE_SIZE - (pa & (PAGE_SIZE - 1))) as usize;
        bytes[..head].copy_from_slice(&bus.ram()[pa as usize..pa as usize + head]);
        let mut have = head;
        // A tail that cannot be fetched leaves the decoder short of bytes.
        let tail_va = pc.wrapping_add(head as u32);
        if let Ok(tail_pa) = self.translate_exec(cpu, sys, bus, counters, tail_va) {
            let n = I::MAX_INSN_BYTES - head;
            if let Some(tail) = bus.ram().get(tail_pa as usize..tail_pa as usize + n) {
                bytes[head..head + n].copy_from_slice(tail);
                have += n;
            }
        }
        I::decode(&bytes[..have], pc).unwrap_or_else(|_| undecodable::<I>())
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Virt<I> {
    fn info(&self) -> EngineInfo {
        if self.cfg.exit_cost_ns == 0 && !self.cfg.mmio_exits {
            EngineInfo {
                name: "native",
                execution_model: "Direct",
                memory_access: "Direct",
                code_generation: "None",
                control_flow_inter: "Direct",
                control_flow_intra: "Direct",
                interrupts: "Direct",
                sync_exceptions: "Direct",
                undef_insn: "Direct",
            }
        } else {
            EngineInfo {
                name: "virt",
                execution_model: "Direct",
                memory_access: "Direct",
                code_generation: "None",
                control_flow_inter: "Direct",
                control_flow_intra: "Direct",
                interrupts: "Via Emulation Layer",
                sync_exceptions: "Direct",
                undef_insn: "Hypercall",
            }
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        let t0 = Instant::now();
        let mut counters = Counters::default();
        let mut phase = PhaseTracker::new();
        self.tlb.flush();
        self.code.clear();

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
                if self.cfg.irq_exits {
                    counters.vm_exits += 1;
                    spin_exit(self.cfg.exit_cost_ns);
                }
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
                Ok(d) => d,
                Err(f) => {
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
                tlb: &mut self.tlb,
                counters: &mut counters,
                cfg: self.cfg,
                phase_mark: None,
                code_write: DirtyCodePages::default(),
                code: &self.code,
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
            let dirty = ctx.code_write;

            for &ppage in dirty.as_slice() {
                counters.code_invalidations += 1;
                self.code.invalidate(ppage);
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
                    if self.cfg.undef_exits {
                        counters.vm_exits += 1;
                        spin_exit(self.cfg.exit_cost_ns);
                    }
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
    use proptest::prelude::*;
    use simbench_core::asm::{PReg, PortableAsm};
    use simbench_core::bus::FlatRam;
    use simbench_core::ir::{AluOp, InsnClass};
    use simbench_isa_armlet::{Armlet, ArmletAsm};
    use std::collections::HashMap;

    fn run_native(asm: ArmletAsm, entry: u32) -> (Machine<Armlet, FlatRam>, RunOutcome) {
        let img = asm.finish(entry);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Virt::<Armlet>::native();
        let out = e.run(&mut m, &RunLimits::insns(10_000_000));
        (m, out)
    }

    #[test]
    fn computes_correctly() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 6);
        a.alu_ri(AluOp::Mul, PReg::A, PReg::A, 7);
        a.halt();
        let (m, out) = run_native(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 42);
        assert_eq!(out.counters.vm_exits, 0, "native never exits");
    }

    #[test]
    fn kvm_exits_on_undef() {
        let mut a = ArmletAsm::new();
        a.org(0);
        let h = a.new_label();
        a.b(h);
        a.org(0x100);
        a.bind(h);
        a.eret();
        a.org(0x8000);
        a.udf();
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let cfg = VirtConfig {
            exit_cost_ns: 0,
            ..VirtConfig::kvm()
        };
        let mut e = Virt::<Armlet>::with_config(cfg);
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(out.counters.vm_exits, 1);
        assert_eq!(out.counters.undef_insns, 1);
    }

    #[test]
    fn decode_cache_invalidated_by_smc() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let slot = a.new_label();
        a.mov_label(PReg::A, slot);
        a.mov_imm(PReg::B, 0x3030_0000 | 9); // movw r3, #9
        a.store(PReg::B, PReg::A, 0);
        a.bind(slot);
        a.mov_imm(PReg::D, 1);
        a.halt();
        let (m, out) = run_native(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 9, "rewritten instruction executed");
        assert!(out.counters.code_invalidations >= 1);
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
        let mut e = Virt::<Armlet>::native();
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
        let mut e = Virt::<Armlet>::native();
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(out.exit, ExitReason::Halted);
        // No loads or stores after the MMU comes on, so every TLB probe
        // below comes from the fetch path.
        assert_eq!(out.counters.mem_reads, 0);
        assert_eq!(out.counters.mem_writes, 0);
        assert!(out.counters.tlb_misses >= 1, "first fetch walks");
        assert!(out.counters.tlb_hits >= 2, "later fetches hit the TLB");
    }

    #[test]
    fn smc_in_one_op_list_dirties_both_pages() {
        use simbench_core::events::Counters;
        use simbench_core::ir::MemSize;
        // Two physical pages hold cached decodes; one instruction's op
        // list stores into both. Both must be queued for invalidation —
        // the old single-slot tracker kept only the last.
        let mut code = CodeCache::default();
        code.insert(0x10_000, nop());
        code.insert(0x11_000, nop());
        let mut cpu = CpuState::at_reset(0);
        let mut sys = simbench_isa_armlet::ArmletSys::default();
        let mut bus = FlatRam::new(1 << 20);
        let mut tlb = DirectTlb::new(16);
        let mut counters = Counters::default();
        let mut ctx = Ctx::<Armlet, _> {
            cpu: &mut cpu,
            sys: &mut sys,
            bus: &mut bus,
            tlb: &mut tlb,
            counters: &mut counters,
            cfg: VirtConfig::native(),
            phase_mark: None,
            code_write: DirtyCodePages::default(),
            code: &code,
        };
        ctx.write(0x10_004, 0xAA, MemSize::B4, false).unwrap();
        ctx.write(0x11_008, 0xBB, MemSize::B4, false).unwrap();
        // A repeat store must not grow the set past its capacity bound.
        ctx.write(0x10_00C, 0xCC, MemSize::B4, false).unwrap();
        let dirty = ctx.code_write;
        assert!(dirty.as_slice().contains(&0x10), "first page kept");
        assert!(dirty.as_slice().contains(&0x11), "second page kept");
        assert_eq!(dirty.as_slice().len(), 2, "set deduplicates");
    }

    fn nop() -> Decoded {
        Decoded::new(1, [Op::Nop], InsnClass::Nop)
    }

    /// A decode told apart from others by its trap number.
    fn tagged(tag: u16) -> Decoded {
        Decoded::new(4, [Op::Svc(tag)], InsnClass::System)
    }

    #[test]
    fn reused_table_serves_no_stale_slot() {
        let mut code = CodeCache::default();
        code.insert(0x3_004, tagged(1));
        code.invalidate(0x3);
        assert!(!code.holds(0x3));
        assert_eq!(code.get(0x3_004), None);
        // Page 7 takes the table page 3 left on the free list.
        code.insert(0x7_008, tagged(2));
        assert_eq!(code.tables.len(), 1, "the freed table was reused");
        assert_eq!(code.get(0x7_004), None, "page 3's slot was cleared");
        assert_eq!(code.get(0x7_008), Some(tagged(2)));
        code.clear();
        assert!(!code.holds(0x7));
        code.insert(0x3_004, tagged(3));
        assert_eq!(code.get(0x3_008), None, "page 7's slot was cleared");
        assert_eq!(code.get(0x3_004), Some(tagged(3)));
    }

    #[derive(Debug, Clone, Copy)]
    enum CacheOp {
        /// Insert on a miss, as the fetch path does.
        Insert(u32, u16),
        Get(u32, u16),
        Invalidate(u32),
        Clear,
    }

    fn cache_op() -> impl Strategy<Value = CacheOp> {
        // Few pages, so tables move between pages; offsets include both
        // ends of a page.
        let off = prop::sample::select(&[0u16, 1, 2, 4, 0x7FE, 0xFFC, 0xFFF]);
        (0u8..10, 0u32..6, off).prop_map(|(kind, page, off)| match kind {
            0..=4 => CacheOp::Insert(page, off),
            5..=7 => CacheOp::Get(page, off),
            8 => CacheOp::Invalidate(page),
            _ => CacheOp::Clear,
        })
    }

    proptest! {
        #[test]
        fn code_cache_matches_map_model(ops in prop::collection::vec(cache_op(), 0..300)) {
            let mut code = CodeCache::default();
            let mut model: HashMap<(u32, u16), Decoded> = HashMap::new();
            // The first page inserted takes over a table page 4 filled
            // at every offset, so a slot the reset missed would show.
            for off in [0u16, 1, 2, 4, 0x7FE, 0xFFC, 0xFFF] {
                code.insert((4 << 12) | off as u32, tagged(off));
            }
            code.invalidate(4);
            for (i, op) in ops.into_iter().enumerate() {
                let d = tagged(i as u16);
                match op {
                    CacheOp::Insert(page, off) => {
                        let pa = (page << 12) | off as u32;
                        if code.get(pa).is_none() {
                            code.insert(pa, d);
                            model.insert((page, off), d);
                        }
                    }
                    CacheOp::Get(page, off) => {
                        let got = code.get((page << 12) | off as u32);
                        prop_assert_eq!(got, model.get(&(page, off)).copied());
                    }
                    CacheOp::Invalidate(page) => {
                        code.invalidate(page);
                        model.retain(|&(p, _), _| p != page);
                    }
                    CacheOp::Clear => {
                        code.clear();
                        model.clear();
                    }
                }
                for page in 0..6 {
                    let held = model.keys().any(|&(p, _)| p == page);
                    prop_assert_eq!(code.holds(page), held);
                }
            }
            for (&(page, off), &d) in &model {
                prop_assert_eq!(code.get((page << 12) | off as u32), Some(d));
            }
        }
    }

    #[test]
    fn spin_exit_zero_is_free() {
        let t0 = Instant::now();
        for _ in 0..1000 {
            spin_exit(0);
        }
        assert!(t0.elapsed().as_micros() < 1000);
    }

    #[test]
    fn spin_exit_waits() {
        let t0 = Instant::now();
        spin_exit(50_000); // 50 µs
        assert!(t0.elapsed().as_nanos() >= 50_000);
    }
}
