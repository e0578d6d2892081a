//! Linear memory with dirty-chunk tracking.
//!
//! A [`Memory`] owns a linear memory's bytes plus a bitmap with one bit
//! per [`CHUNK`]-byte chunk. Every write — `store`/`store8` on both
//! execution tiers, the fused store superinstructions, data-segment
//! initialisation and `memory.grow` — goes through [`Memory::write`],
//! [`Memory::store`] or [`Memory::grow`], which set the bits of the
//! chunks they touch. No
//! mutable view of the bytes escapes this module (reads go through the
//! `Deref<Target = [u8]>` impl), so the bitmap over-approximates exactly
//! the bytes that differ from the last [`Memory::clear_dirty`].
//!
//! That invariant is what makes [`WasmLinker::reset`] cost O(chunks a
//! job wrote) instead of O(memory size): [`Memory::restore`] copies back
//! only the dirty chunks of the sealed baseline and drops any grown
//! tail.
//!
//! [`WasmLinker::reset`]: crate::exec::WasmLinker::reset

use std::fmt;
use std::ops::Deref;

use crate::exec::PAGE;

/// Dirty-tracking granularity in bytes (a 64 KiB page holds 16 chunks).
pub(crate) const CHUNK: usize = 4096;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();

/// Wasm 1.0's hard limit on a linear memory: 65 536 pages (4 GiB).
pub(crate) const MAX_PAGES: u32 = 65536;

/// One linear memory: bytes plus the dirty-chunk bitmap.
pub(crate) struct Memory {
    bytes: Vec<u8>,
    /// Bit `c % 64` of word `c / 64` is set when chunk `c` was written
    /// since the last [`Memory::clear_dirty`]; sized to cover `bytes`.
    dirty: Vec<u64>,
}

/// Bitmap words needed to cover `len` bytes.
fn words_for(len: usize) -> usize {
    len.div_ceil(CHUNK).div_ceil(64)
}

impl Memory {
    /// A zeroed memory of `pages` pages, or `None` past [`MAX_PAGES`].
    pub(crate) fn new(pages: u32) -> Option<Memory> {
        if pages > MAX_PAGES {
            return None;
        }
        let len = pages as usize * PAGE;
        Some(Memory {
            bytes: vec![0; len],
            dirty: vec![0; words_for(len)],
        })
    }

    /// Copies `src` to `addr..addr + src.len()` and marks every chunk it
    /// touches dirty. `None` (and nothing written) when the range is out
    /// of bounds. Used for data segments and the tree-walker's stores.
    #[inline]
    pub(crate) fn write(&mut self, addr: usize, src: &[u8]) -> Option<()> {
        let end = addr.checked_add(src.len())?;
        self.bytes.get_mut(addr..end)?.copy_from_slice(src);
        if !src.is_empty() {
            let (first, last) = (addr >> CHUNK_SHIFT, (end - 1) >> CHUNK_SHIFT);
            // A scalar store spans at most two chunks, so this loop is
            // empty or one pass; only data segments run it longer.
            for c in first..last {
                self.mark(c);
            }
            self.mark(last);
        }
        Some(())
    }

    /// A scalar store of `N` (1, 4 or 8) bytes — the VM's hot path. It
    /// spans at most two chunks, so it marks the first and last with no
    /// loop. `None` (and nothing written) when out of bounds.
    #[inline]
    pub(crate) fn store<const N: usize>(&mut self, addr: usize, bytes: [u8; N]) -> Option<()> {
        let end = addr.checked_add(N)?;
        self.bytes.get_mut(addr..end)?.copy_from_slice(&bytes);
        self.mark(addr >> CHUNK_SHIFT);
        self.mark((end - 1) >> CHUNK_SHIFT);
        Some(())
    }

    #[inline]
    fn mark(&mut self, chunk: usize) {
        self.dirty[chunk / 64] |= 1 << (chunk % 64);
    }

    /// `memory.grow`: appends `delta` zeroed pages and returns the old
    /// size in pages, or `None` — memory unchanged — when the result
    /// would exceed [`MAX_PAGES`] or the host cannot allocate it.
    pub(crate) fn grow(&mut self, delta: u32) -> Option<u32> {
        let old = (self.bytes.len() / PAGE) as u32;
        if u64::from(old) + u64::from(delta) > u64::from(MAX_PAGES) {
            return None;
        }
        let extra = delta as usize * PAGE;
        self.bytes.try_reserve_exact(extra).ok()?;
        self.bytes.resize(self.bytes.len() + extra, 0);
        self.dirty.resize(words_for(self.bytes.len()), 0);
        Some(old)
    }

    /// Forgets every dirty mark: the current contents become the state
    /// [`Memory::restore`] is measured against.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Rewinds to `base` — the contents at the last
    /// [`Memory::clear_dirty`] — by copying back only the dirty chunks
    /// and truncating any tail grown since. Clears the bitmap.
    pub(crate) fn restore(&mut self, base: &[u8]) {
        debug_assert!(self.bytes.len() >= base.len(), "linear memory shrank");
        if self.bytes.len() > base.len() {
            // Give a grown tail's allocation back, not only its length:
            // a pooled instance must not pin a past job's peak.
            self.bytes.truncate(base.len());
            self.bytes.shrink_to_fit();
        }
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let start = (w * 64 + bits.trailing_zeros() as usize) * CHUNK;
                bits &= bits - 1;
                if start >= base.len() {
                    // A chunk of the grown (now truncated) tail; later
                    // bits are higher addresses still.
                    break;
                }
                let end = (start + CHUNK).min(base.len());
                self.bytes[start..end].copy_from_slice(&base[start..end]);
            }
        }
        self.dirty.truncate(words_for(base.len()));
    }
}

impl Deref for Memory {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dirty: u32 = self.dirty.iter().map(|w| w.count_ones()).sum();
        write!(
            f,
            "Memory({} pages, {dirty} dirty chunks)",
            self.bytes.len() / PAGE
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty_chunks(m: &Memory) -> Vec<usize> {
        (0..m.dirty.len() * 64)
            .filter(|c| m.dirty[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    #[test]
    fn writes_mark_every_chunk_they_touch() {
        let mut m = Memory::new(1).unwrap();
        m.write(CHUNK - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(dirty_chunks(&m), vec![0, 1]);
        m.write(3 * CHUNK, &[9]).unwrap();
        assert_eq!(dirty_chunks(&m), vec![0, 1, 3]);
        // Empty writes are in bounds at the very end and mark nothing.
        m.write(PAGE, &[]).unwrap();
        assert_eq!(dirty_chunks(&m), vec![0, 1, 3]);
        m.store(6 * CHUNK - 4, 7u64.to_le_bytes()).unwrap();
        m.store(PAGE - 1, [1]).unwrap();
        assert_eq!(dirty_chunks(&m), vec![0, 1, 3, 5, 6, 15]);
        assert_eq!(m[6 * CHUNK - 4], 7);
    }

    #[test]
    fn out_of_bounds_writes_change_nothing() {
        let mut m = Memory::new(1).unwrap();
        assert!(m.write(PAGE - 3, &[1, 2, 3, 4]).is_none());
        assert!(m.write(usize::MAX, &[1]).is_none());
        assert!(m.store(PAGE - 2, [1, 2, 3, 4]).is_none());
        assert!(m.store(usize::MAX, [1]).is_none());
        assert!(m.iter().all(|&b| b == 0));
        assert!(dirty_chunks(&m).is_empty());
    }

    #[test]
    fn restore_copies_back_dirty_chunks_and_drops_the_grown_tail() {
        let mut m = Memory::new(1).unwrap();
        m.write(100, &[7; 5000]).unwrap();
        m.clear_dirty();
        let base = m.to_vec();
        m.write(CHUNK - 1, &[0xAA, 0xBB]).unwrap();
        m.write(PAGE - 1, &[0xCC]).unwrap();
        assert_eq!(m.grow(2), Some(1));
        m.write(PAGE + 5, &[0xDD]).unwrap();
        m.restore(&base);
        assert_eq!(&*m, &base[..]);
        assert!(dirty_chunks(&m).is_empty());
        assert_eq!(m.dirty.len(), words_for(PAGE));
    }

    #[test]
    fn grow_enforces_the_page_limit() {
        let mut m = Memory::new(1).unwrap();
        assert_eq!(m.grow(u32::MAX), None);
        assert_eq!(m.grow(MAX_PAGES), None);
        assert_eq!(m.len(), PAGE);
        assert_eq!(m.grow(0), Some(1));
        assert_eq!(m.grow(1), Some(1));
        assert_eq!(m.len(), 2 * PAGE);
        assert!(Memory::new(MAX_PAGES + 1).is_none());
    }
}
