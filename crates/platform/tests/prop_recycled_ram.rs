//! A dropped [`Platform`] returns its RAM to a process-wide free list,
//! and [`Platform::with_ram`] hands it out again. A recycled platform
//! must be indistinguishable from a never-used one, whatever the guest
//! did to the previous owner: RAM all zero, no page marked written, and
//! the same state digest after the same run as fresh, fully scanned RAM
//! ([`FlatRam`], the reference).

use std::sync::{Mutex, MutexGuard, PoisonError};

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
const RAM: usize = 5 * PAGE_SIZE as usize + 1233;

/// The free list is shared by every test in this file: each one holds
/// this lock, so no other test takes or evicts the buffers it checks.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(kind, address, value, size)`; see [`apply`].
type Op = (u8, u32, u32, usize);

fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0..RAM as u32, any::<u32>(), 0usize..3)
}

/// Kinds: 0 a store, 1 a store straddling the end of the address's
/// page, 2 a [`Bus::load`] of up to three pages, 3 a read. Addresses are
/// clamped so every access ends inside RAM.
fn apply(bus: &mut impl Bus, &(kind, addr, val, size): &Op) {
    let size = [MemSize::B1, MemSize::B2, MemSize::B4][size];
    let last = |len: u32| addr.min(RAM as u32 - len);
    match kind {
        0 => {
            bus.write(last(size.bytes()), val, size).unwrap();
        }
        1 => {
            let pa = (addr | (PAGE_SIZE - 1)) - size.bytes() / 2;
            bus.write(pa.min(RAM as u32 - 4), val, MemSize::B4).unwrap();
        }
        2 => {
            let bytes: Vec<u8> = val.to_le_bytes().repeat(val as usize % (3 * 1024));
            bus.load(last(bytes.len() as u32), &bytes);
        }
        _ => {
            bus.read(last(size.bytes()), size).unwrap();
        }
    }
}

fn run<B: Bus>(bus: B, ops: &[Op]) -> Machine<Armlet, B> {
    let mut m = Machine::<Armlet, B>::boot(&GuestImage::new(0), bus);
    for op in ops {
        apply(&mut m.bus, op);
    }
    m
}

proptest! {
    #[test]
    fn recycled_ram_is_fresh(
        first in prop::collection::vec(op(), 0..48),
        second in prop::collection::vec(op(), 0..48),
    ) {
        let _serial = serial();
        let used = run(Platform::with_ram(RAM), &first);
        let buffer = used.bus.ram().as_ptr();
        drop(used);

        let p = Platform::with_ram(RAM);
        prop_assert_eq!(p.ram().as_ptr(), buffer, "the dropped RAM is recycled");
        prop_assert!(p.ram().iter().all(|&b| b == 0), "recycled RAM is zero");
        prop_assert!(
            p.written_pages().unwrap().iter().all(|&w| w == 0),
            "no page of recycled RAM is marked"
        );
        let recycled = run(p, &second);
        let fresh = run(FlatRam::new(RAM), &second);
        prop_assert_eq!(recycled.bus.ram(), fresh.bus.ram());
        prop_assert_eq!(recycled.state_digest(), fresh.state_digest());
    }
}

#[test]
fn free_list_matches_by_length() {
    let _serial = serial();
    let other = RAM + PAGE_SIZE as usize;
    let (a, b) = (Platform::with_ram(RAM), Platform::with_ram(other));
    let (pa, pb) = (a.ram().as_ptr(), b.ram().as_ptr());
    drop(a);
    drop(b);
    // Both buffers are on the list, `b`'s most recently returned.
    let a = Platform::with_ram(RAM);
    assert_eq!(a.ram().as_ptr(), pa, "the same length reuses its buffer");
    assert_ne!(a.ram().as_ptr(), pb, "another length's buffer is not used");
    let b = Platform::with_ram(other);
    assert_eq!(b.ram().as_ptr(), pb);
    assert_eq!((a.ram().len(), b.ram().len()), (RAM, other));
}
