//! Bootable guest images.

use std::fmt;
use std::sync::Arc;

use crate::bus::Bus;

/// A chunk of bytes to be loaded at a fixed physical address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Load address (physical; boot code runs MMU-off with an identity
    /// view, so link addresses equal load addresses).
    pub addr: u32,
    /// Raw contents. Shared: images built from one support package hold
    /// one copy of their common page tables.
    pub bytes: Arc<[u8]>,
}

impl Section {
    /// One-past-the-end address of the section.
    pub fn end(&self) -> u32 {
        self.addr + self.bytes.len() as u32
    }
}

/// A bare-metal bootable guest image: what the assembler/linker produces
/// and what a [`crate::machine::Machine`] boots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuestImage {
    /// Reset vector: the first instruction executed.
    pub entry: u32,
    /// Sections, non-overlapping, in any order.
    pub sections: Vec<Section>,
}

impl GuestImage {
    /// Create an empty image entering at `entry`.
    pub fn new(entry: u32) -> Self {
        GuestImage {
            entry,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    ///
    /// # Panics
    ///
    /// Panics if the new section overlaps an existing one — overlapping
    /// sections are always an assembler bug.
    pub fn push_section(&mut self, addr: u32, bytes: impl Into<Arc<[u8]>>) {
        let bytes = bytes.into();
        let end = addr + bytes.len() as u32;
        for s in &self.sections {
            assert!(
                end <= s.addr || addr >= s.end(),
                "section {addr:#x}..{end:#x} overlaps {:#x}..{:#x}",
                s.addr,
                s.end()
            );
        }
        self.sections.push(Section { addr, bytes });
    }

    /// Total payload bytes.
    pub fn size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Highest address written by any section.
    pub fn limit(&self) -> u32 {
        self.sections.iter().map(Section::end).max().unwrap_or(0)
    }

    /// Copy all sections into the bus's RAM.
    ///
    /// # Panics
    ///
    /// Panics if any section lies outside RAM.
    pub fn load_into<B: Bus>(&self, bus: &mut B) {
        for s in &self.sections {
            let end = s.addr as usize + s.bytes.len();
            assert!(
                end <= bus.ram().len(),
                "image section {:#x}..{end:#x} exceeds RAM",
                s.addr
            );
            bus.load(s.addr, &s.bytes);
        }
    }
}

impl fmt::Display for GuestImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "entry {:#010x}, {} sections, {} bytes",
            self.entry,
            self.sections.len(),
            self.size()
        )?;
        let mut sections: Vec<_> = self.sections.iter().collect();
        sections.sort_by_key(|s| s.addr);
        for s in sections {
            writeln!(
                f,
                "  {:#010x}..{:#010x} ({} bytes)",
                s.addr,
                s.end(),
                s.bytes.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatRam;

    #[test]
    fn load_and_limits() {
        let mut img = GuestImage::new(0x8000);
        img.push_section(0x10, vec![1, 2, 3, 4]);
        img.push_section(0x20, vec![9]);
        assert_eq!(img.size(), 5);
        assert_eq!(img.limit(), 0x21);
        let mut ram = FlatRam::new(0x40);
        img.load_into(&mut ram);
        assert_eq!(&ram.ram()[0x10..0x14], &[1, 2, 3, 4]);
        assert_eq!(ram.ram()[0x20], 9);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_detected() {
        let mut img = GuestImage::new(0);
        img.push_section(0x10, vec![0; 8]);
        img.push_section(0x14, vec![0; 8]);
    }

    #[test]
    fn adjacent_sections_allowed() {
        let mut img = GuestImage::new(0);
        img.push_section(0x10, vec![0; 8]);
        img.push_section(0x18, vec![0; 8]);
        assert_eq!(img.sections.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds RAM")]
    fn load_out_of_bounds() {
        let mut img = GuestImage::new(0);
        img.push_section(0x100, vec![0; 8]);
        let mut ram = FlatRam::new(0x100);
        img.load_into(&mut ram);
    }
}
