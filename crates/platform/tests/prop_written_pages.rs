//! The written-page map is an optimisation only: digests and diffs over
//! a [`Platform`] (which visits only written pages) must equal the
//! full-RAM reference computed over a [`FlatRam`] (which visits every
//! page) after any sequence of stores.

use proptest::prelude::*;
use simbench_core::bus::{Bus, FlatRam};
use simbench_core::image::GuestImage;
use simbench_core::ir::MemSize;
use simbench_core::machine::Machine;
use simbench_core::PAGE_SIZE;
use simbench_isa_armlet::Armlet;
use simbench_platform::Platform;

/// Not a multiple of the page size (nor of the word size), so the last
/// page is short and ends in a partial word.
const RAM: usize = 6 * PAGE_SIZE as usize + 1233;
const PAGES: usize = RAM.div_ceil(PAGE_SIZE as usize);
const MAX_RAM_DELTAS: usize = Machine::<Armlet, FlatRam>::MAX_RAM_DELTAS;

/// `(kind, page, offset, value, size)`; see [`apply`].
type Op = (u8, usize, u32, u32, usize);

fn op() -> impl Strategy<Value = Op> {
    (0u8..5, 0..PAGES, 0u32..PAGE_SIZE, any::<u32>(), 0usize..3)
}

/// Kinds: 0 a store, 1 a zero store (often into an untouched page), 2 a
/// store ending at or straddling the page's end, 3 a page rewritten to
/// zero, 4 a page filled with one value. Addresses past the end of RAM
/// are clamped to its last `size` bytes.
fn apply(bus: &mut impl Bus, &(kind, page, off, val, size): &Op) {
    let size = [MemSize::B1, MemSize::B2, MemSize::B4][size];
    let base = page as u32 * PAGE_SIZE;
    let whole_page = || (base..base + PAGE_SIZE).step_by(size.bytes() as usize);
    let (addrs, v): (Vec<u32>, u32) = match kind {
        0 => (vec![base + off], val),
        1 => (vec![base + off], 0),
        2 => (vec![base + PAGE_SIZE - 1 - off % size.bytes()], val),
        3 => (whole_page().collect(), 0),
        _ => (whole_page().collect(), val),
    };
    for pa in addrs {
        bus.write(pa.min(RAM as u32 - size.bytes()), v, size)
            .unwrap();
    }
}

fn machine<B: Bus>(bus: B, ops: &[&[Op]]) -> Machine<Armlet, B> {
    let mut m = Machine::<Armlet, B>::boot(&GuestImage::new(0), bus);
    for op in ops.iter().copied().flatten() {
        apply(&mut m.bus, op);
    }
    m
}

proptest! {
    #[test]
    fn page_digest_equals_full_scan(ops in prop::collection::vec(op(), 0..48)) {
        let p = machine(Platform::with_ram(RAM), &[&ops]);
        let f = machine(FlatRam::new(RAM), &[&ops]);
        prop_assert!(f.bus.written_pages().is_none(), "FlatRam is the reference");
        prop_assert_eq!(p.bus.ram(), f.bus.ram());
        prop_assert_eq!(p.state_digest(), f.state_digest());
    }

    #[test]
    fn page_diff_equals_full_walk(
        common in prop::collection::vec(op(), 0..16),
        a in prop::collection::vec(op(), 0..24),
        b in prop::collection::vec(op(), 0..24),
    ) {
        let (pa, pb) = (
            machine(Platform::with_ram(RAM), &[&common, &a]),
            machine(Platform::with_ram(RAM), &[&common, &b]),
        );
        let (fa, fb) = (
            machine(FlatRam::new(RAM), &[&common, &a]),
            machine(FlatRam::new(RAM), &[&common, &b]),
        );
        let reference = fa.state_diff(&fb);
        prop_assert!(
            reference.len() <= MAX_RAM_DELTAS,
            "registers agree, so every delta is a capped RAM word"
        );
        prop_assert_eq!(pa.state_diff(&pb), reference.clone());
        prop_assert_eq!(pa.state_diff(&fb), reference, "a mixed pair walks every page");
    }
}

#[test]
fn cap_keeps_the_lowest_addresses() {
    // Two pages of differences, the higher page written first: the
    // capped diff still reports the lowest words of the lower page.
    let ops: [Op; 2] = [(4, 5, 0, 1, 2), (4, 2, 0, 1, 2)];
    let p = machine(Platform::with_ram(RAM), &[&ops])
        .state_diff(&machine(Platform::with_ram(RAM), &[]));
    let f = machine(FlatRam::new(RAM), &[&ops]).state_diff(&machine(FlatRam::new(RAM), &[]));
    assert_eq!(p, f);
    assert_eq!(p.len(), MAX_RAM_DELTAS);
    assert_eq!(p[0].field, "ram[0x00002000]");
    assert_eq!(p[MAX_RAM_DELTAS - 1].field, "ram[0x0000203c]");
}
