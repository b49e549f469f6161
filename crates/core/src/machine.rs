//! The machine: CPU + system registers + physical bus.

use crate::cpu::CpuState;
use crate::digest::{
    marked_pages, page_bytes, page_count, ram_digest, Fnv1a, StateDelta, StateDigest,
};
use crate::image::GuestImage;
use crate::isa::Isa;

/// A complete guest machine instance for architecture `I` on bus `B`.
///
/// Engines borrow a machine mutably for the duration of a run; the
/// machine itself is engine-agnostic, so the same loaded image can be
/// executed by different engines for differential testing.
#[derive(Debug)]
pub struct Machine<I: Isa, B> {
    /// Architectural register state.
    pub cpu: CpuState,
    /// ISA-specific system registers.
    pub sys: I::Sys,
    /// Physical memory and devices.
    pub bus: B,
}

impl<I: Isa, B: crate::bus::Bus> Machine<I, B> {
    /// Create a machine with the image loaded and the CPU at its entry
    /// point, in the architectural reset state (kernel mode, MMU off,
    /// IRQs masked).
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in the bus's RAM.
    pub fn boot(image: &GuestImage, mut bus: B) -> Self {
        image.load_into(&mut bus);
        Machine {
            cpu: CpuState::at_reset(image.entry),
            sys: I::Sys::default(),
            bus,
        }
    }

    /// Reset CPU and system registers without reloading memory.
    pub fn reset_cpu(&mut self, entry: u32) {
        self.cpu = CpuState::at_reset(entry);
        self.sys = I::Sys::default();
    }

    /// Pack the non-register CPU status into one word for hashing and
    /// diffing: flags in the low nibble layout NZCV, then privilege and
    /// the IRQ mask.
    fn status_word(cpu: &CpuState) -> u32 {
        (cpu.flags.n as u32) << 5
            | (cpu.flags.z as u32) << 4
            | (cpu.flags.c as u32) << 3
            | (cpu.flags.v as u32) << 2
            | (cpu.level.is_kernel() as u32) << 1
            | cpu.irq_enabled as u32
    }

    /// Digest of the architectural state: GPRs, PC, flags, privilege,
    /// IRQ mask, ISA system registers (via [`Isa::sys_regs`]), and all
    /// of RAM. RAM costs only its written pages when the bus tracks
    /// them; the value is the same either way ([`ram_digest`]).
    ///
    /// Engine-private state (TLBs, decode caches, event counters) and
    /// device-internal state are excluded: the former is legitimately
    /// engine-specific, the latter surfaces through RAM and registers
    /// as soon as the guest reads it.
    pub fn state_digest(&self) -> StateDigest {
        let mut cpu = Fnv1a::new();
        for r in &self.cpu.regs[..I::GPRS] {
            cpu.write_u32(*r);
        }
        cpu.write_u32(self.cpu.pc);
        cpu.write_u32(Self::status_word(&self.cpu));
        let mut sys = Fnv1a::new();
        I::sys_regs(&self.sys, &mut |_, v| sys.write_u32(v));
        let ram = self.bus.ram();
        let ram = match self.bus.written_pages() {
            Some(map) => ram_digest(ram, marked_pages(map.iter().copied())),
            None => ram_digest(ram, 0..page_count(ram.len())),
        };
        StateDigest {
            cpu: cpu.finish(),
            sys: sys.finish(),
            ram,
        }
    }

    /// Field-by-field architectural diff against another machine of the
    /// same ISA, for reporting after a digest mismatch.
    ///
    /// RAM is compared word-wise and reported as `ram[0x<pa>]` deltas in
    /// ascending address order, capped at [`Machine::MAX_RAM_DELTAS`]
    /// entries. When both buses track written pages and their RAM sizes
    /// match, only pages either machine wrote are compared (the rest are
    /// zero on both sides); otherwise every page is.
    pub fn state_diff<B2: crate::bus::Bus>(&self, other: &Machine<I, B2>) -> Vec<StateDelta> {
        const REG_NAMES: [&str; crate::cpu::MAX_GPRS] = [
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13",
            "r14", "r15",
        ];
        let mut deltas = Vec::new();
        let mut push = |field: String, a: u32, b: u32| {
            if a != b {
                deltas.push(StateDelta { field, a, b });
            }
        };
        for (i, name) in REG_NAMES.iter().enumerate().take(I::GPRS) {
            push(name.to_string(), self.cpu.regs[i], other.cpu.regs[i]);
        }
        push("pc".to_string(), self.cpu.pc, other.cpu.pc);
        push(
            "status(nzcv|kernel|irq)".to_string(),
            Self::status_word(&self.cpu),
            Self::status_word(&other.cpu),
        );
        let mut mine = Vec::new();
        I::sys_regs(&self.sys, &mut |n, v| mine.push((n, v)));
        let mut idx = 0;
        I::sys_regs(&other.sys, &mut |n, v| {
            let (name, a) = mine[idx];
            debug_assert_eq!(name, n, "sys_regs must visit in a fixed order");
            push(format!("sys.{name}"), a, v);
            idx += 1;
        });
        let (ra, rb) = (self.bus.ram(), other.bus.ram());
        push("ram_len".to_string(), ra.len() as u32, rb.len() as u32);
        let len = ra.len().min(rb.len());
        let pages: Vec<usize> = match (self.bus.written_pages(), other.bus.written_pages()) {
            (Some(ma), Some(mb)) if ra.len() == rb.len() => {
                marked_pages(ma.iter().zip(mb).map(|(a, b)| a | b)).collect()
            }
            _ => (0..page_count(len)).collect(),
        };
        let (ra, rb) = (&ra[..len], &rb[..len]);
        let ram_start = deltas.len();
        'pages: for p in pages {
            let base = p * crate::PAGE_SIZE as usize;
            let words = page_bytes(ra, p)
                .chunks_exact(4)
                .zip(page_bytes(rb, p).chunks_exact(4));
            for (i, (ca, cb)) in words.enumerate() {
                if ca != cb {
                    if deltas.len() - ram_start == Self::MAX_RAM_DELTAS {
                        break 'pages;
                    }
                    deltas.push(StateDelta {
                        field: format!("ram[{:#010x}]", base + i * 4),
                        a: u32::from_le_bytes(ca.try_into().unwrap()),
                        b: u32::from_le_bytes(cb.try_into().unwrap()),
                    });
                }
            }
        }
        deltas
    }

    /// Cap on reported `ram[...]` deltas in [`Machine::state_diff`].
    pub const MAX_RAM_DELTAS: usize = 16;
}
