//! Sparse, page-granular physical memory with per-page decoded text.

use std::cell::Cell;
use std::collections::BTreeMap;

use riscv_isa::Instr;

use crate::CpuError;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_BYTES: usize = PAGE_SIZE as usize;
/// Instruction words per page.
const PAGE_WORDS: usize = PAGE_BYTES / 4;
/// Entries in the last-hit lookup cache. A guest's hot set is its text,
/// stack, operand and result pages.
const RECENT: usize = 4;
/// A page number no address has (addresses shift down to 52 bits).
const NO_PAGE: u64 = u64::MAX;

/// One mapped page and, once something was fetched from it, its decoded
/// instruction words.
#[derive(Debug, Clone)]
struct Page {
    bytes: Box<[u8; PAGE_BYTES]>,
    /// `Instr::decode` of each word, filled on first fetch; `None` until
    /// then and for words that do not decode.
    decoded: Option<Box<[Option<Instr>]>>,
}

impl Page {
    /// The page's bytes for writing. The one way to change a page, so any
    /// write into a page drops its decoded copy.
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_BYTES] {
        self.decoded = None;
        &mut self.bytes
    }
}

/// Byte-addressable sparse memory backed by 4 KiB pages.
///
/// Reads of unmapped pages are an error (the guest touched memory the
/// program never initialized or reserved); writes allocate pages on demand.
///
/// Pages live in one table. An access that stays inside one page costs one
/// page lookup, which a few-entry cache of the last pages hit answers
/// without touching the address index; an access that crosses a page
/// boundary goes byte by byte, so a fault reports the first unmapped
/// byte. [`Memory::fetch`] returns instructions decoded once per page and
/// kept until the next write into that page. Neither cache is
/// architectural state: [`Memory::dump_pages`] and
/// [`Memory::mapped_pages`] see only the bytes.
///
/// # Example
///
/// ```
/// use riscv_sim::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_u64(0x8000_0000, 0xDEAD_BEEF_0BAD_F00D).unwrap();
/// assert_eq!(mem.read_u64(0x8000_0000).unwrap(), 0xDEAD_BEEF_0BAD_F00D);
/// assert_eq!(mem.read_u32(0x8000_0004).unwrap(), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    pages: Vec<Page>,
    /// Page number → index into `pages`, in address order.
    index: BTreeMap<u64, usize>,
    /// `(page number, index)` of the last pages the index was searched
    /// for, newest first. An entry goes in only when a lookup misses all
    /// of them, evicting the oldest; a hit does not move it (FIFO, not
    /// LRU).
    recent: [Cell<(u64, usize)>; RECENT],
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// An empty memory.
    #[must_use]
    pub fn new() -> Self {
        Memory {
            pages: Vec::new(),
            index: BTreeMap::new(),
            recent: std::array::from_fn(|_| Cell::new((NO_PAGE, 0))),
        }
    }

    /// Number of mapped pages (for footprint diagnostics).
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// The `pages` index of page `number`, if it is mapped.
    fn lookup(&self, number: u64) -> Option<usize> {
        for entry in &self.recent {
            let (hit, index) = entry.get();
            if hit == number {
                return Some(index);
            }
        }
        let index = *self.index.get(&number)?;
        self.remember(number, index);
        Some(index)
    }

    /// Puts page `number` first in the last-hit cache, evicting the oldest.
    fn remember(&self, number: u64, index: usize) {
        for i in (1..RECENT).rev() {
            self.recent[i].set(self.recent[i - 1].get());
        }
        self.recent[0].set((number, index));
    }

    /// The page holding `addr`, mapping it on demand.
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let number = addr >> PAGE_SHIFT;
        let index = match self.lookup(number) {
            Some(index) => index,
            None => {
                let index = self.pages.len();
                self.pages.push(Page {
                    bytes: Box::new([0; PAGE_BYTES]),
                    decoded: None,
                });
                self.index.insert(number, index);
                self.remember(number, index);
                index
            }
        };
        &mut self.pages[index]
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] if the page was never written.
    pub fn read_u8(&self, addr: u64) -> Result<u8, CpuError> {
        Ok(self.read_le::<1>(addr)?[0])
    }

    /// Writes one byte, mapping the page on demand.
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for symmetry and future protection
    /// bits.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), CpuError> {
        self.write_le(addr, &[value])
    }

    /// Reads `N` little-endian bytes.
    fn read_le<const N: usize>(&self, addr: u64) -> Result<[u8; N], CpuError> {
        let mut out = [0u8; N];
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + N <= PAGE_BYTES {
            let index = self
                .lookup(addr >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(addr))?;
            out.copy_from_slice(&self.pages[index].bytes[offset..offset + N]);
        } else {
            for (i, byte) in out.iter_mut().enumerate() {
                *byte = self.read_u8(addr.wrapping_add(i as u64))?;
            }
        }
        Ok(out)
    }

    fn write_le(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CpuError> {
        let offset = (addr & (PAGE_SIZE - 1)) as usize;
        if offset + bytes.len() <= PAGE_BYTES {
            self.page_mut(addr).bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b)?;
            }
        }
        Ok(())
    }

    /// Reads a little-endian u16.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    pub fn read_u16(&self, addr: u64) -> Result<u16, CpuError> {
        Ok(u16::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    pub fn read_u32(&self, addr: u64) -> Result<u32, CpuError> {
        Ok(u32::from_le_bytes(self.read_le(addr)?))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] for unmapped locations.
    pub fn read_u64(&self, addr: u64) -> Result<u64, CpuError> {
        Ok(u64::from_le_bytes(self.read_le(addr)?))
    }

    /// Writes a little-endian u16.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u16(&mut self, addr: u64, value: u16) -> Result<(), CpuError> {
        self.write_le(addr, &value.to_le_bytes())
    }

    /// Writes a little-endian u32.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), CpuError> {
        self.write_le(addr, &value.to_le_bytes())
    }

    /// Writes a little-endian u64.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), CpuError> {
        self.write_le(addr, &value.to_le_bytes())
    }

    /// Copies a byte slice into memory at `addr`, one page at a time.
    ///
    /// # Errors
    ///
    /// See [`Memory::write_u8`].
    pub fn load_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), CpuError> {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr & (PAGE_SIZE - 1)) as usize;
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_BYTES - offset));
            self.page_mut(addr).bytes_mut()[offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`, one page at a time.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::UnmappedAddress`] with the first unmapped byte's
    /// address.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, CpuError> {
        // `len` can come from the guest, so grow with what is mapped.
        let mut out = Vec::new();
        let mut addr = addr;
        while out.len() < len {
            let offset = (addr & (PAGE_SIZE - 1)) as usize;
            let chunk = (len - out.len()).min(PAGE_BYTES - offset);
            let index = self
                .lookup(addr >> PAGE_SHIFT)
                .ok_or(CpuError::UnmappedAddress(addr))?;
            out.extend_from_slice(&self.pages[index].bytes[offset..offset + chunk]);
            addr = addr.wrapping_add(chunk as u64);
        }
        Ok(out)
    }

    /// The instruction at `pc`, decoded on its page's first fetch and
    /// reused until the next write into that page.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::MisalignedPc`] if `pc` is not 4-byte aligned,
    /// [`CpuError::FetchFault`] if its page is unmapped, and
    /// [`CpuError::Decode`] if the word is not an instruction (such words
    /// are decoded again on every fetch).
    pub fn fetch(&mut self, pc: u64) -> Result<Instr, CpuError> {
        if !pc.is_multiple_of(4) {
            return Err(CpuError::MisalignedPc(pc));
        }
        let index = self
            .lookup(pc >> PAGE_SHIFT)
            .ok_or(CpuError::FetchFault(pc))?;
        let page = &mut self.pages[index];
        let slot = ((pc & (PAGE_SIZE - 1)) >> 2) as usize;
        let decoded = page
            .decoded
            .get_or_insert_with(|| vec![None; PAGE_WORDS].into_boxed_slice());
        if let Some(instr) = decoded[slot] {
            return Ok(instr);
        }
        let word = &page.bytes[4 * slot..4 * slot + 4];
        let instr = Instr::decode(u32::from_le_bytes([word[0], word[1], word[2], word[3]]))?;
        decoded[slot] = Some(instr);
        Ok(instr)
    }

    /// Dumps every mapped page as `(base address, page bytes)` in address
    /// order — the snapshot view of memory.
    #[must_use]
    pub fn dump_pages(&self) -> Vec<(u64, Vec<u8>)> {
        self.index
            .iter()
            .map(|(&number, &index)| (number << PAGE_SHIFT, self.pages[index].bytes.to_vec()))
            .collect()
    }

    /// Replaces the entire memory contents with previously dumped pages.
    ///
    /// Validates every page before mutating anything, so a malformed dump
    /// leaves the memory untouched.
    ///
    /// # Errors
    ///
    /// Returns a description if a page base is not page-aligned or a page
    /// is not exactly one page long.
    pub fn restore_pages(&mut self, pages: &[(u64, Vec<u8>)]) -> Result<(), &'static str> {
        for (base, data) in pages {
            if base & (PAGE_SIZE - 1) != 0 {
                return Err("memory page base is not page-aligned");
            }
            if data.len() != PAGE_BYTES {
                return Err("memory page has the wrong size");
            }
        }
        *self = Memory::new();
        for (base, data) in pages {
            self.load_bytes(*base, data)
                .expect("writes into memory cannot fail");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 0xAB).unwrap();
        m.write_u16(0x1002, 0x1234).unwrap();
        m.write_u32(0x1004, 0xDEAD_BEEF).unwrap();
        m.write_u64(0x1008, u64::MAX).unwrap();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xAB);
        assert_eq!(m.read_u16(0x1002).unwrap(), 0x1234);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(0x1008).unwrap(), u64::MAX);
    }

    #[test]
    fn unmapped_read_fails() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0x42), Err(CpuError::UnmappedAddress(0x42)));
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = 0x1FFC; // straddles a 4 KiB boundary for u64
        m.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn huge_read_fails_at_the_first_unmapped_byte() {
        let mut m = Memory::new();
        m.load_bytes(0x1FF0, &[7; 32]).unwrap();
        assert_eq!(
            m.read_bytes(0x1FF8, usize::MAX),
            Err(CpuError::UnmappedAddress(0x3000))
        );
    }

    #[test]
    fn bulk_load() {
        let mut m = Memory::new();
        m.load_bytes(0x2000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(0x2000, 4).unwrap(), vec![1, 2, 3, 4]);
    }
}
