//! Buddy allocator for contiguous physical frame runs.
//!
//! Page-table nodes and kernel metadata want physically contiguous memory;
//! the buddy system provides power-of-two runs with O(log n) split/coalesce
//! and is the classic design used by Linux's zone allocator.

use crate::addr::Pfn;
use crate::error::{MemError, MemResult};
use std::collections::BTreeSet;

/// Maximum order supported (2^MAX_ORDER frames per block).
pub const MAX_ORDER: usize = 16;

/// A power-of-two buddy allocator over frames `base..base + total`.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    base: u64,
    total: u64,
    /// Free blocks per order, keyed by block base frame.
    free_lists: Vec<BTreeSet<u64>>,
    /// Per frame offset: 1 + the order of the live allocation based
    /// there, or 0. Validates frees without hashing.
    allocated: Vec<u8>,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `total` frames starting at `base`.
    ///
    /// `total` need not be a power of two; the region is tiled greedily
    /// with maximal aligned power-of-two blocks.
    pub fn new(base: Pfn, total: u64) -> Self {
        let mut a = BuddyAllocator {
            base: base.0,
            total,
            free_lists: vec![BTreeSet::new(); MAX_ORDER + 1],
            allocated: vec![0; total as usize],
            free_frames: total,
        };
        let mut start = base.0;
        let end = base.0 + total;
        while start < end {
            // Largest order that is both aligned at `start` and fits.
            let align_order = if start == 0 {
                MAX_ORDER
            } else {
                start.trailing_zeros() as usize
            };
            let mut order = align_order.min(MAX_ORDER);
            while (1u64 << order) > end - start {
                order -= 1;
            }
            a.free_lists[order].insert(start);
            start += 1u64 << order;
        }
        a
    }

    /// Allocates a contiguous, naturally aligned run of `2^order` frames.
    pub fn alloc(&mut self, order: usize) -> MemResult<Pfn> {
        if order > MAX_ORDER {
            return Err(MemError::Fragmented);
        }
        // Find the smallest order with a free block.
        let mut found = None;
        for o in order..=MAX_ORDER {
            if let Some(&blk) = self.free_lists[o].iter().next() {
                found = Some((o, blk));
                break;
            }
        }
        let (mut o, blk) = match found {
            Some(x) => x,
            None => {
                return Err(if self.free_frames >= (1u64 << order) {
                    MemError::Fragmented
                } else {
                    MemError::OutOfMemory
                })
            }
        };
        self.free_lists[o].remove(&blk);
        // Split down to the requested order, returning the upper halves.
        while o > order {
            o -= 1;
            let upper = blk + (1u64 << o);
            self.free_lists[o].insert(upper);
        }
        self.allocated[(blk - self.base) as usize] = order as u8 + 1;
        self.free_frames -= 1u64 << order;
        Ok(Pfn(blk))
    }

    /// Allocates a `2^order` run like [`BuddyAllocator::alloc`], but
    /// records each frame of the run as its own order-0 allocation, so the
    /// caller may free frames one at a time (coalescing still reassembles
    /// the block once all of them come back). This is the cell magazine's
    /// refill primitive: one global-allocator acquisition
    /// yields a batch of independently-freeable frames.
    pub fn alloc_run(&mut self, order: usize) -> MemResult<Vec<Pfn>> {
        let base = self.alloc(order)?;
        let n = 1u64 << order;
        let off = (base.0 - self.base) as usize;
        self.allocated[off..off + n as usize].fill(1);
        Ok((base.0..base.0 + n).map(Pfn).collect())
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// coalescing with its buddy as far as possible.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is not the base of a live allocation.
    pub fn free(&mut self, pfn: Pfn) {
        let mut blk = pfn.0;
        let slot = blk
            .checked_sub(self.base)
            .and_then(|off| self.allocated.get_mut(off as usize))
            .filter(|o| **o > 0);
        let mut order = match slot {
            Some(o) => std::mem::take(o) as usize - 1,
            None => panic!("buddy free of unallocated block {}", blk),
        };
        self.free_frames += 1u64 << order;
        // Coalesce upward while the buddy is free.
        while order < MAX_ORDER {
            let buddy = blk ^ (1u64 << order);
            if buddy < self.base || buddy + (1u64 << order) > self.base + self.total {
                break;
            }
            if !self.free_lists[order].remove(&buddy) {
                break;
            }
            blk = blk.min(buddy);
            order += 1;
        }
        self.free_lists[order].insert(blk);
    }

    /// Returns the number of free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Returns the total number of managed frames.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Returns the largest order currently allocatable without splitting
    /// failure, or `None` if empty.
    pub fn largest_free_order(&self) -> Option<usize> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free_lists[o].is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_splits_and_free_coalesces() {
        let mut b = BuddyAllocator::new(Pfn(0), 64);
        assert_eq!(b.free_frames(), 64);
        let x = b.alloc(0).unwrap();
        assert_eq!(b.free_frames(), 63);
        let y = b.alloc(3).unwrap();
        assert_eq!(b.free_frames(), 55);
        assert_eq!(y.0 % 8, 0, "order-3 block naturally aligned");
        b.free(x);
        b.free(y);
        assert_eq!(b.free_frames(), 64);
        // Everything must have coalesced back into one order-6 block.
        assert_eq!(b.largest_free_order(), Some(6));
    }

    #[test]
    fn distinct_blocks_never_overlap() {
        let mut b = BuddyAllocator::new(Pfn(0), 256);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for order in [0usize, 1, 2, 3, 0, 2, 4, 1] {
            let p = b.alloc(order).unwrap();
            runs.push((p.0, 1u64 << order));
        }
        for i in 0..runs.len() {
            for j in i + 1..runs.len() {
                let (a, la) = runs[i];
                let (c, lc) = runs[j];
                assert!(
                    a + la <= c || c + lc <= a,
                    "blocks overlap: {:?} {:?}",
                    runs[i],
                    runs[j]
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_total_is_fully_usable() {
        let mut b = BuddyAllocator::new(Pfn(0), 100);
        let mut n = 0;
        while b.alloc(0).is_ok() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn alloc_run_frames_free_individually_and_recoalesce() {
        let mut b = BuddyAllocator::new(Pfn(0), 64);
        let run = b.alloc_run(3).unwrap();
        assert_eq!(run.len(), 8);
        assert_eq!(b.free_frames(), 56);
        // Frames are contiguous and each one frees on its own.
        for w in run.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
        for pfn in &run {
            b.free(*pfn);
        }
        assert_eq!(b.free_frames(), 64);
        assert_eq!(b.largest_free_order(), Some(6), "run coalesced back");
    }

    #[test]
    fn fragmentation_vs_oom() {
        let mut b = BuddyAllocator::new(Pfn(0), 4);
        let a0 = b.alloc(0).unwrap();
        let _a1 = b.alloc(0).unwrap();
        let _a2 = b.alloc(0).unwrap();
        let _a3 = b.alloc(0).unwrap();
        assert_eq!(b.alloc(0), Err(MemError::OutOfMemory));
        b.free(a0);
        // One frame free but a pair is requested: fragmentation.
        assert_eq!(b.alloc(1), Err(MemError::OutOfMemory));
    }

    #[test]
    fn fragmented_error_when_frames_exist_but_not_contiguous() {
        let mut b = BuddyAllocator::new(Pfn(0), 8);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc(0).unwrap()).collect();
        // Free alternating frames: 4 free frames, none adjacent.
        for blk in blocks.iter().step_by(2) {
            b.free(*blk);
        }
        assert_eq!(b.free_frames(), 4);
        assert_eq!(b.alloc(2), Err(MemError::Fragmented));
        assert!(b.alloc(0).is_ok());
    }

    #[test]
    #[should_panic(expected = "unallocated block")]
    fn free_unallocated_panics() {
        let mut b = BuddyAllocator::new(Pfn(0), 16);
        b.free(Pfn(3));
    }

    #[test]
    fn nonzero_base_region() {
        let mut b = BuddyAllocator::new(Pfn(1000), 32);
        let p = b.alloc(2).unwrap();
        assert!(p.0 >= 1000 && p.0 + 4 <= 1032);
        b.free(p);
        assert_eq!(b.free_frames(), 32);
    }
}
