//! Instructions that straddle a page end.
//!
//! A riscle 32-bit instruction may start two bytes before a page ends.
//! Its tail bytes belong to the next virtual page: they must come
//! through that page's own translation, and a store to the tail page
//! must invalidate the translated block that ends with the instruction.
//! The interpreter fetches page by page and caches nothing, so it is the
//! reference here. Every QEMU version profile is checked, since they
//! differ in how self-modifying code is handled (page invalidation or a
//! full flush).

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::bus::FlatRam;
use simbench_core::engine::{Engine, ExitReason, RunLimits};
use simbench_core::image::GuestImage;
use simbench_core::ir::Cond;
use simbench_core::machine::Machine;
use simbench_dbt::{Dbt, QEMU_VERSIONS};
use simbench_interp::Interp;
use simbench_isa_riscle::asm::reg;
use simbench_isa_riscle::encoding as enc;
use simbench_isa_riscle::sys::csr;
use simbench_isa_riscle::{PtFlags, Riscle, RiscleAsm, TableBuilder};

/// Run `img` on the interpreter and on dbt under every version profile,
/// check all halt with the same registers, and return register `r`.
fn agreed_reg(img: &GuestImage, r: PReg) -> u32 {
    let run = |e: &mut dyn Engine<Riscle, FlatRam>| {
        let mut m = Machine::<Riscle, _>::boot(img, FlatRam::new(1 << 21));
        let out = e.run(&mut m, &RunLimits::insns(10_000));
        assert_eq!(out.exit, ExitReason::Halted);
        m.cpu.regs
    };
    let want = run(&mut Interp::<Riscle>::new());
    for profile in QEMU_VERSIONS {
        let got = run(&mut Dbt::<Riscle>::with_profile(*profile));
        assert_eq!(got, want, "dbt {} disagrees with interp", profile.name);
    }
    want[reg(r) as usize]
}

#[test]
fn straddling_tail_uses_its_own_translation() {
    const TABLES: u32 = 0x10_0000;
    // `li r6, #0x2222` at virtual 0x8FFE: its immediate halfword is the
    // first one of virtual page 0x9000, which maps to physical 0x2_0000.
    let li = enc::li(reg(PReg::D), 0x2222);
    let mut a = RiscleAsm::new();
    a.org(0x8000);
    let straddle = a.new_label();
    a.mov_imm(PReg::A, TABLES);
    a.csrw(csr::TTB, PReg::A);
    a.mov_imm(PReg::A, 1);
    a.csrw(csr::CTRL, PReg::A); // paging on
    a.b(straddle);
    a.org(0x8FFE);
    a.bind(straddle);
    a.bytes(&li.to_le_bytes()[..2]);
    // Physical 0x9000, the page after the head's: a decoy immediate.
    a.org(0x9000);
    a.bytes(&0xDEADu16.to_le_bytes());
    a.halt();
    a.org(0x2_0000);
    a.bytes(&li.to_le_bytes()[2..]);
    a.halt();
    let mut img = a.finish(0x8000);
    let mut tb = TableBuilder::new(TABLES);
    tb.map_range(0, 0, 0x4_0000, PtFlags::KERNEL);
    tb.map_page(0x9000, 0x2_0000, PtFlags::KERNEL);
    let (load_at, blob) = tb.into_blob();
    img.push_section(load_at, blob);
    assert_eq!(agreed_reg(&img, PReg::D), 0x2222);
}

/// A loop whose block ends with `li r6, #0x1234` straddling into page
/// 0x9000. The first pass stores a new immediate halfword into the tail
/// page; the second must run the rewritten instruction. `lead` 32-bit
/// instructions run before the straddler in the same block, so the
/// straddler is either the block's only instruction or the last of
/// several.
fn tail_store_image(lead: u32) -> GuestImage {
    let mut a = RiscleAsm::new();
    a.org(0x8000);
    let top = a.new_label();
    let done = a.new_label();
    a.mov_imm(PReg::A, 0); // pass
    a.mov_imm(PReg::B, 0x9000); // the tail page
    a.mov_imm(PReg::C, 0x77); // the new immediate
    a.b(top);
    a.org(0x8FFE - 4 * lead);
    a.bind(top);
    for _ in 0..lead {
        a.mov_imm(PReg::E, 0x5555);
    }
    assert_eq!(a.here(), 0x8FFE, "the lead instructions are 32-bit");
    a.mov_imm(PReg::D, 0x1234); // its immediate halfword sits at 0x9000
    a.cmp_ri(PReg::A, 0);
    a.b_cond(Cond::Ne, done);
    a.mov_imm(PReg::A, 1);
    a.store16(PReg::C, PReg::B, 0);
    a.b(top);
    a.bind(done);
    a.halt();
    a.finish(0x8000)
}

#[test]
fn store_to_tail_page_reaches_straddling_insn() {
    for lead in [0, 3] {
        let d = agreed_reg(&tail_store_image(lead), PReg::D);
        assert_eq!(d, 0x77, "lead {lead}");
    }
}
