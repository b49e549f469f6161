//! Architectural state digests and diffs for differential testing.
//!
//! A [`StateDigest`] summarises everything two engines must agree on
//! after retiring the same number of instructions from the same image:
//! the CPU register state, the ISA system registers, and physical RAM.
//! Engine-private state (TLBs, decode caches, counters) is deliberately
//! excluded — the paper's premise is that engines share *architectural*
//! semantics while differing in cost profile.
//!
//! Hashing is FNV-1a over 64-bit lanes: dependency-free and
//! deterministic across hosts.
//!
//! RAM is digested page by page ([`ram_digest`]): the hash of every
//! non-zero [`PAGE_SIZE`]-byte page, keyed by its page index, in
//! ascending order, then the RAM length. All-zero pages contribute
//! nothing, so the value depends on RAM content alone. That lets a bus
//! which tracks written pages ([`Bus::written_pages`]) hash only those:
//! its RAM is mutated only through [`Bus::write`] and [`Bus::load`],
//! which mark the pages they touch, so an unmarked page is all zero.
//! A lockstep checkpoint then costs what the guest touched, not the
//! size of RAM, and a bus without the map gets the same digest from a
//! scan of every page.
//!
//! [`Bus::written_pages`]: crate::bus::Bus::written_pages
//! [`Bus::write`]: crate::bus::Bus::write
//! [`Bus::load`]: crate::bus::Bus::load

use std::fmt;

use crate::PAGE_SIZE;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over 64-bit lanes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Mix one 64-bit lane.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Mix one 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Mix a byte slice, eight bytes per lane (the tail is zero-padded,
    /// which is fine for fixed-length inputs like RAM).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
        self.write_u64(bytes.len() as u64);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Indices of the set bits of a page bitmap (bit `p % 64` of word
/// `p / 64` is page `p`), ascending.
pub fn marked_pages(map: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    map.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// The canonical RAM digest: FNV-1a over `(page index, page hash)` for
/// each non-zero page among `pages`, then the RAM length.
///
/// `pages` must be ascending and include every non-zero page of `ram`;
/// given that, the result is the same whichever superset is passed.
pub fn ram_digest(ram: &[u8], pages: impl IntoIterator<Item = usize>) -> u64 {
    let mut h = Fnv1a::new();
    for p in pages {
        let page = page_bytes(ram, p);
        if page.iter().fold(0, |acc, &b| acc | b) != 0 {
            let mut ph = Fnv1a::new();
            ph.write_bytes(page);
            h.write_u64(p as u64);
            h.write_u64(ph.finish());
        }
    }
    h.write_u64(ram.len() as u64);
    h.finish()
}

/// Page `p` of `ram`; the last page may be short.
pub(crate) fn page_bytes(ram: &[u8], p: usize) -> &[u8] {
    let start = p * PAGE_SIZE as usize;
    &ram[start..ram.len().min(start + PAGE_SIZE as usize)]
}

/// Number of pages covering `len` bytes of RAM.
pub(crate) fn page_count(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE as usize)
}

/// A snapshot digest of one machine's architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    /// Hash over GPRs, PC, flags, privilege level, and the IRQ mask.
    pub cpu: u64,
    /// Hash over the ISA system-register file.
    pub sys: u64,
    /// Hash over physical RAM ([`ram_digest`]).
    pub ram: u64,
}

impl StateDigest {
    /// A single hash combining all three components.
    pub fn combined(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.cpu);
        h.write_u64(self.sys);
        h.write_u64(self.ram);
        h.finish()
    }
}

impl fmt::Display for StateDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu:{:016x} sys:{:016x} ram:{:016x}",
            self.cpu, self.sys, self.ram
        )
    }
}

/// One architectural field that differs between two machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    /// Field name: `r0`..`r15`, `pc`, `flags`, `level`, `irq_enabled`,
    /// `sys.<reg>`, or `ram[0x<pa>]` (word granule).
    pub field: String,
    /// Value in the first machine.
    pub a: u32,
    /// Value in the second machine.
    pub b: u32,
}

impl fmt::Display for StateDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:#010x} != {:#010x}", self.field, self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_inputs() {
        let mut a = Fnv1a::new();
        a.write_bytes(&[1, 2, 3]);
        let mut b = Fnv1a::new();
        b.write_bytes(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv_length_matters() {
        // Zero-padding alone must not collide [1] with [1, 0].
        let mut a = Fnv1a::new();
        a.write_bytes(&[1]);
        let mut b = Fnv1a::new();
        b.write_bytes(&[1, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn marked_pages_lists_set_bits_in_order() {
        let map = [0b1010_0001u64, 0, 1 << 63 | 1];
        assert_eq!(
            marked_pages(map).collect::<Vec<_>>(),
            vec![0, 5, 7, 128, 191]
        );
        assert_eq!(marked_pages([0u64; 4]).count(), 0);
    }

    #[test]
    fn ram_digest_depends_on_content_alone() {
        let len = 3 * PAGE_SIZE as usize + 100;
        let mut ram = vec![0u8; len];
        let all = || 0..page_count(len);
        let zero = ram_digest(&ram, all());
        assert_eq!(ram_digest(&ram, [1, 3]), zero, "zero pages are skipped");
        ram[len - 1] = 7;
        let tail = ram_digest(&ram, all());
        assert_ne!(tail, zero);
        assert_eq!(ram_digest(&ram, [3]), tail, "short last page");
        ram[len - 1] = 0;
        assert_eq!(ram_digest(&ram, all()), zero, "rewritten to zero");
        assert_ne!(
            ram_digest(&ram[..len - 1], all()),
            zero,
            "length is part of the digest"
        );
    }

    #[test]
    fn ram_digest_keys_pages_by_index() {
        let mut a = vec![0u8; 2 * PAGE_SIZE as usize];
        let mut b = a.clone();
        a[0] = 1;
        b[PAGE_SIZE as usize] = 1;
        assert_ne!(ram_digest(&a, 0..2), ram_digest(&b, 0..2));
    }

    #[test]
    fn digest_display_is_stable() {
        let d = StateDigest {
            cpu: 1,
            sys: 2,
            ram: 3,
        };
        assert_eq!(
            d.to_string(),
            "cpu:0000000000000001 sys:0000000000000002 ram:0000000000000003"
        );
    }

    #[test]
    fn delta_display() {
        let d = StateDelta {
            field: "r3".into(),
            a: 0x10,
            b: 0x20,
        };
        assert_eq!(d.to_string(), "r3: 0x00000010 != 0x00000020");
    }
}
