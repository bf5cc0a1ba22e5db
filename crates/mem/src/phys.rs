//! Physical memory: frame store with COW reference counts and logical
//! page contents.
//!
//! Rather than materialising 4 KiB of real bytes per simulated frame (which
//! would make multi-GiB experiments impossible to run), each frame carries a
//! single `u64` *content stamp*. A write to any address in a page replaces
//! the page's stamp; reads observe it. This is exactly enough state to
//! verify copy-on-write semantics (a child must observe the parent's stamps
//! as of fork time, and later writes must not leak across), while the
//! *costs* of moving real data are charged through [`CostModel`].
//!
//! Frames come from a [`SharedFramePool`]: a locked buddy allocator that
//! one or more kernel cells draw from. A single-kernel machine is simply
//! the only cell of its own pool. Two layers sit on top:
//!
//! * **Pins** — a kernel-side reference (e.g. the exec image cache) that
//!   keeps a frame alive independent of page-table mappings. Pins are
//!   tracked separately from PTE references so the structural invariant
//!   checker can account for them.
//! * **The cell magazine** — a private free-list refilled by *batched*
//!   pool allocations, so concurrent cells pay the pool lock once per
//!   batch instead of once per frame. SMP cells boot with one
//!   ([`PhysMemory::new_cell`]); [`PhysMemory::new`] boots without, and
//!   then every frame costs one `frame_alloc`.

use crate::addr::{Pfn, HUGE_PAGES};
use crate::buddy::BuddyAllocator;
use crate::cost::{CostModel, Cycles};
use crate::error::{MemError, MemResult};
use crate::swap::SwapDevice;
use fpr_faults::FaultSite;
use fpr_trace::metrics;
use fpr_trace::smp::VLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Free-frame watermarks, mirroring Linux's per-zone `min`/`low`/`high`.
///
/// Background reclaim (the simulated kswapd, [`PressureLevel::Low`] and
/// worse) should run while free frames sit below `low` and stop once they
/// recover past `high`; only below `min` is the machine in OOM territory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Below this, allocations are in OOM territory.
    pub min: u64,
    /// Below this, background reclaim should run.
    pub low: u64,
    /// Reclaim's refill target; pressure clears above it.
    pub high: u64,
}

impl Watermarks {
    /// Default watermarks for a machine of `total_frames`, scaled the way
    /// Linux derives zone watermarks from `min_free_kbytes`: `min` is
    /// 1/64th of memory (at least 4 frames), `low` and `high` sit 25% and
    /// 50% above it.
    pub fn for_total(total_frames: u64) -> Watermarks {
        let min = (total_frames / 64).max(4).min(total_frames);
        Watermarks {
            min,
            low: (min + min / 4).min(total_frames),
            high: (min + min / 2).min(total_frames),
        }
    }
}

/// How tight free memory currently is, judged against [`Watermarks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Free frames at or above the high watermark: no pressure.
    None,
    /// Free frames below high but at or above low: reclaim soon.
    Low,
    /// Free frames below low but at or above min: reclaim now.
    High,
    /// Free frames below min: allocations may fail; OOM territory.
    Critical,
}

/// Per-frame metadata: COW reference count and logical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMeta {
    refs: u32,
    content: u64,
}

/// Refill batch for the magazine an SMP cell boots with (see
/// [`PhysMemory::new_cell`]).
pub const CELL_MAGAZINE_BATCH: u64 = 64;

/// The machine's buddy core, shared by every kernel cell drawing from it
/// (possibly on different OS threads).
///
/// A cell with a magazine keeps a genuinely private free-list (touched
/// only by the cell's own thread) and refills it with *batched*
/// allocations from this locked core, so concurrent creators pay the
/// global serialization once per [`CELL_MAGAZINE_BATCH`] frames instead
/// of once per frame. The lock is a [`VLock`] named `"buddy"`,
/// so every contended refill is visible in
/// [`fpr_trace::metrics::lock_stats`] and priced in virtual time.
///
/// A free-count mirror is kept in an atomic so pressure reads
/// ([`PhysMemory::pressure`], [`PhysMemory::free_frames`]) never touch
/// the lock.
#[derive(Debug)]
pub struct SharedFramePool {
    core: VLock<BuddyAllocator>,
    free: AtomicU64,
    total: u64,
}

impl SharedFramePool {
    /// A pool of `total_frames` frames, all free.
    pub fn new(total_frames: u64) -> SharedFramePool {
        SharedFramePool {
            core: VLock::new("buddy", BuddyAllocator::new(Pfn(0), total_frames)),
            free: AtomicU64::new(total_frames),
            total: total_frames,
        }
    }

    /// Total frames in the pool.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Frames currently free in the pool core (excluding frames parked
    /// in any cell's magazine). Lock-free read of the atomic mirror.
    pub fn free_frames(&self) -> u64 {
        self.free.load(Ordering::Relaxed)
    }

    /// Runs `f` on the core under its lock, then refreshes the free-count
    /// mirror. Writers all hold the lock, so a plain store suffices.
    fn with_core<R>(&self, f: impl FnOnce(&mut BuddyAllocator) -> R) -> R {
        let mut core = self.core.lock();
        let r = f(&mut core);
        self.free.store(core.free_frames(), Ordering::Relaxed);
        r
    }

    /// One frame off the locked core.
    fn alloc_one(&self) -> MemResult<Pfn> {
        self.with_core(|core| core.alloc(0))
    }

    /// A refill run of up to `2^max_order` frames, degrading to smaller
    /// runs under fragmentation — the whole descent happens under one
    /// lock acquisition, unlike a naive per-order retry loop.
    fn alloc_run_best(&self, max_order: usize) -> MemResult<Vec<Pfn>> {
        self.with_core(|core| {
            let mut order = max_order;
            loop {
                match core.alloc_run(order) {
                    Ok(run) => return Ok(run),
                    Err(_) if order > 0 => order -= 1,
                    Err(e) => return Err(e),
                }
            }
        })
    }

    /// An exactly-`2^order` naturally aligned run (huge mappings).
    fn alloc_aligned_run(&self, order: usize) -> MemResult<Vec<Pfn>> {
        self.with_core(|core| core.alloc_run(order))
    }

    /// Returns `pfns` to the core under one lock acquisition.
    fn free_many(&self, pfns: &[Pfn]) {
        if pfns.is_empty() {
            return;
        }
        self.with_core(|core| {
            for &pfn in pfns {
                core.free(pfn);
            }
        });
    }
}

/// Machine-wide transparent-huge-page counters (`/proc/meminfo`'s THP
/// line). Promotion failures are *absorbed* — the mapping proceeds with
/// small pages — so `failed` counts fallbacks, not errors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThpStats {
    /// Blocks collapsed into 2 MiB huge leaves.
    pub promoted: u64,
    /// Huge leaves split back into small PTEs.
    pub demoted: u64,
    /// Promotion attempts that fell back to small pages (fragmentation
    /// or an injected `pt_promote` fault).
    pub failed: u64,
}

/// A cell's private free-list magazine over the shared pool.
#[derive(Debug, Clone)]
struct FrameCache {
    /// Parked free frames (counted as free machine-wide).
    magazine: Vec<Pfn>,
    /// Target refill batch (frames fetched per pool acquisition).
    batch: u64,
}

/// One kernel cell's view of the machine's physical memory.
#[derive(Debug)]
pub struct PhysMemory {
    meta: HashMap<u64, FrameMeta>,
    cost: CostModel,
    /// Kernel pins per frame (image cache etc.); each pin holds one ref.
    pins: HashMap<u64, u32>,
    cache: Option<FrameCache>,
    /// Cumulative count of frames ever allocated (statistics).
    pub frames_allocated_total: u64,
    /// Cumulative count of 4 KiB page copies performed (statistics).
    pub pages_copied_total: u64,
    /// Free-frame watermarks the pressure level is judged against.
    watermarks: Watermarks,
    /// PSI-style stall accounting: cycles spent in reclaim passes.
    stall_cycles_total: u64,
    /// PSI-style stall accounting: number of reclaim stalls recorded.
    stall_events_total: u64,
    /// The swap device (capacity 0 = no swap configured).
    swap: SwapDevice,
    /// Machine-wide THP promotion/demotion counters.
    thp: ThpStats,
    /// The frame pool this cell draws from.
    pool: Arc<SharedFramePool>,
    /// Frames currently drawn from the pool by this cell — resident (in
    /// `meta`) plus magazine-parked.
    drawn: u64,
}

impl PhysMemory {
    /// Creates physical memory with `total_frames` frames and the given
    /// cost model: the only cell of a pool of its own, without a
    /// magazine.
    pub fn new(total_frames: u64, cost: CostModel) -> Self {
        PhysMemory::on_pool(Arc::new(SharedFramePool::new(total_frames)), cost)
    }

    /// Creates a cell view of `pool` without a magazine: every frame is
    /// taken from the pool directly. Watermarks and pressure are judged
    /// against the *pool's* free count, so every cell sees machine-wide
    /// pressure.
    pub fn on_pool(pool: Arc<SharedFramePool>, cost: CostModel) -> Self {
        PhysMemory {
            meta: HashMap::new(),
            cost,
            pins: HashMap::new(),
            cache: None,
            frames_allocated_total: 0,
            pages_copied_total: 0,
            watermarks: Watermarks::for_total(pool.total_frames()),
            stall_cycles_total: 0,
            stall_events_total: 0,
            swap: SwapDevice::new(0),
            thp: ThpStats::default(),
            pool,
            drawn: 0,
        }
    }

    /// Creates the physical-memory view of one SMP *cell*: like
    /// [`PhysMemory::on_pool`], plus a private magazine refilled in
    /// batches of [`CELL_MAGAZINE_BATCH`].
    pub fn new_cell(pool: Arc<SharedFramePool>, cost: CostModel) -> Self {
        let mut pm = PhysMemory::on_pool(pool, cost);
        pm.enable_frame_cache(CELL_MAGAZINE_BATCH);
        pm
    }

    /// Frames this cell currently holds out of its pool (resident plus
    /// magazine-parked). The SMP driver's conservation check sums this
    /// across cells against the pool's free count.
    pub fn drawn_frames(&self) -> u64 {
        self.drawn
    }

    /// Attaches a swap device of `slots` one-page slots (replacing the
    /// default zero-capacity device). Boot-time only: swapping an active
    /// device out from under live swap entries would orphan them.
    pub fn set_swap_capacity(&mut self, slots: u64) {
        assert_eq!(
            self.swap.used_slots(),
            0,
            "cannot resize a swap device holding pages"
        );
        self.swap = SwapDevice::new(slots);
    }

    /// The swap device.
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// The swap device, mutably (slot refcounting during fork/unshare).
    pub fn swap_mut(&mut self) -> &mut SwapDevice {
        &mut self.swap
    }

    /// Writes one page out: reserves a slot holding `stamp`, charging the
    /// bitmap scan and the device write. Crosses
    /// [`fpr_faults::FaultSite::SwapSlotAlloc`]; on `Err` nothing changed.
    pub fn swap_out_page(&mut self, stamp: u64, cycles: &mut Cycles) -> MemResult<u64> {
        let PhysMemory { swap, cost, .. } = self;
        swap.alloc_slot(stamp, cycles, cost)
    }

    /// Reads slot `slot` back into a fresh frame on a major fault.
    ///
    /// Order matters for transactionality: the device read (crossing
    /// [`fpr_faults::FaultSite::SwapIn`]) and the frame allocation
    /// (crossing [`fpr_faults::FaultSite::FrameAlloc`]) both happen
    /// before any state mutates, so either failure leaves the address
    /// space, the device, and the frame pool untouched. The slot
    /// reference is still held on success; the caller drops it once the
    /// PTE points at the new frame.
    pub fn swap_in_frame(&mut self, slot: u64, cycles: &mut Cycles) -> MemResult<Pfn> {
        let stamp = {
            let PhysMemory { swap, cost, .. } = self;
            swap.read_slot(slot, cycles, cost)?
        };
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let pfn = self.take_frame(cycles)?;
        self.meta.insert(pfn.0, FrameMeta { refs: 1, content: stamp });
        self.frames_allocated_total += 1;
        metrics::incr("mem.frame_alloc");
        Ok(pfn)
    }

    /// Returns the active cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the cost model (used by ablation benches).
    pub fn set_cost(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Number of frames currently free: the pool's free count plus this
    /// cell's magazine.
    pub fn free_frames(&self) -> u64 {
        self.pool.free_frames() + self.cached_frames()
    }

    /// Total number of frames in the machine (the pool's).
    pub fn total_frames(&self) -> u64 {
        self.pool.total_frames()
    }

    /// Number of frames currently in use *by this cell*: the frames
    /// drawn from the pool minus those parked in the magazine — i.e.
    /// exactly the frames carrying live metadata — so the per-cell
    /// invariant (PTE references = used frames) holds on any machine.
    pub fn used_frames(&self) -> u64 {
        self.drawn - self.cached_frames()
    }

    /// The active free-frame watermarks.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Replaces the watermarks (experiments tighten them to provoke
    /// pressure without filling a whole machine).
    pub fn set_watermarks(&mut self, w: Watermarks) {
        assert!(
            w.min <= w.low && w.low <= w.high,
            "watermarks must satisfy min <= low <= high"
        );
        self.watermarks = w;
    }

    /// The current pressure level, judging free frames against the
    /// watermarks. Costs nothing: it is a pure read.
    pub fn pressure(&self) -> PressureLevel {
        let free = self.free_frames();
        if free >= self.watermarks.high {
            PressureLevel::None
        } else if free >= self.watermarks.low {
            PressureLevel::Low
        } else if free >= self.watermarks.min {
            PressureLevel::High
        } else {
            PressureLevel::Critical
        }
    }

    /// Frames a reclaim pass should free to clear pressure: the gap from
    /// the current free count up to the high watermark (zero when free).
    pub fn reclaim_target(&self) -> u64 {
        self.watermarks.high.saturating_sub(self.free_frames())
    }

    /// Records a PSI-style memory stall: `cycles` spent waiting on
    /// reclaim instead of making progress.
    pub fn note_stall(&mut self, cycles: u64) {
        self.stall_cycles_total += cycles;
        self.stall_events_total += 1;
    }

    /// Cumulative cycles recorded as memory-pressure stalls.
    pub fn stall_cycles_total(&self) -> u64 {
        self.stall_cycles_total
    }

    /// Cumulative number of memory-pressure stalls recorded.
    pub fn stall_events_total(&self) -> u64 {
        self.stall_events_total
    }

    /// Gives this cell a magazine with the given refill batch size
    /// (frames per pool acquisition). Hits and refills change cost; all
    /// other accounting is unchanged.
    fn enable_frame_cache(&mut self, batch: u64) {
        assert!(batch > 0, "frame cache needs batch > 0");
        if self.cache.is_none() {
            self.cache = Some(FrameCache {
                magazine: Vec::new(),
                batch,
            });
        }
    }

    /// Removes the magazine, draining its frames back to the pool.
    pub fn disable_frame_cache(&mut self) {
        if let Some(cache) = self.cache.take() {
            self.return_to_pool(&cache.magazine);
        }
    }

    /// Frames currently parked in the magazine.
    pub fn cached_frames(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.magazine.len() as u64)
    }

    /// Hands `pfns` back to the pool under one lock acquisition.
    fn return_to_pool(&mut self, pfns: &[Pfn]) {
        self.drawn -= pfns.len() as u64;
        self.pool.free_many(pfns);
    }

    /// One frame, through the magazine when this cell has one.
    fn take_frame(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        let Some(cache) = self.cache.as_mut() else {
            let pfn = self.pool.alloc_one()?;
            self.drawn += 1;
            cycles.charge(self.cost.frame_alloc);
            return Ok(pfn);
        };
        if let Some(pfn) = cache.magazine.pop() {
            cycles.charge(self.cost.frame_cache_hit);
            metrics::incr("mem.frame_cache.hit");
            return Ok(pfn);
        }
        // Refill: one batched pool acquisition pays the global
        // serialization once for the whole batch; the pool falls back to
        // smaller runs under fragmentation or near-exhaustion. Cross the
        // refill site before touching the pool lock: an injected failure
        // models a dry pool and surfaces as an ordinary transient
        // OutOfMemory, leaving the cell consistent.
        let order = 63 - cache.batch.leading_zeros() as usize;
        fpr_faults::cross(FaultSite::PoolRefill).map_err(|_| MemError::OutOfMemory)?;
        let run = self.pool.alloc_run_best(order)?;
        self.drawn += run.len() as u64;
        cycles.charge(self.cost.frame_cache_refill);
        metrics::incr("mem.frame_cache.refill");
        let mut run = run.into_iter();
        let first = run.next().expect("alloc_run returns at least one frame");
        cache.magazine.extend(run);
        Ok(first)
    }

    /// Returns one freed frame to the magazine, or to the pool when this
    /// cell has none.
    fn release_frame(&mut self, pfn: Pfn) {
        let Some(cache) = self.cache.as_mut() else {
            self.return_to_pool(&[pfn]);
            return;
        };
        cache.magazine.push(pfn);
        // Overfull magazine: drain a batch back to the pool so one cell
        // freeing heavily cannot strand the whole machine.
        if cache.magazine.len() as u64 > 2 * cache.batch {
            let keep = cache.magazine.len() - cache.batch as usize;
            let mut drained = cache.magazine.split_off(keep);
            drained.reverse();
            self.return_to_pool(&drained);
            metrics::incr("mem.frame_cache.drain");
        }
    }

    /// Machine-wide THP promotion/demotion counters.
    pub fn thp_stats(&self) -> ThpStats {
        self.thp
    }

    /// Records a successful huge-page promotion.
    pub fn note_thp_promoted(&mut self) {
        self.thp.promoted += 1;
        metrics::incr("mem.thp.promote");
    }

    /// Records a huge-page demotion (split back to small PTEs).
    pub fn note_thp_demoted(&mut self) {
        self.thp.demoted += 1;
        metrics::incr("mem.thp.demote");
    }

    /// Records a promotion attempt that fell back to small pages.
    pub fn note_thp_promote_failed(&mut self) {
        self.thp.failed += 1;
        metrics::incr("mem.thp.promote_failed_fragmented");
    }

    /// Allocates a naturally aligned, physically contiguous run of 512
    /// zeroed frames for one 2 MiB huge mapping, returning the head frame.
    /// Every frame of the run has its own reference count and can be freed
    /// individually (demotion hands each page its own PTE), so the run is
    /// taken with [`BuddyAllocator::alloc_run`], bypassing the cell
    /// magazine — contiguity is the whole point.
    ///
    /// Fails with [`MemError::Fragmented`] when no aligned run exists; the
    /// caller falls back to small pages. No fault site is crossed here —
    /// promotion attempts are guarded by `pt_promote` at the call site and
    /// a natural allocation failure is already an absorbed fallback.
    pub fn alloc_zeroed_huge_run(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        let order = HUGE_PAGES.trailing_zeros() as usize;
        let run = self.pool.alloc_aligned_run(order)?;
        self.drawn += run.len() as u64;
        // One global-allocator acquisition for the whole run, then the
        // data cost of zeroing 2 MiB.
        cycles.charge(self.cost.frame_alloc);
        cycles.charge(self.cost.page_zero * HUGE_PAGES);
        let head = run[0];
        debug_assert_eq!(head.0 % HUGE_PAGES, 0, "huge run must be aligned");
        for pfn in run {
            self.meta.insert(pfn.0, FrameMeta { refs: 1, content: 0 });
        }
        self.frames_allocated_total += HUGE_PAGES;
        metrics::add("mem.frame_alloc", HUGE_PAGES);
        Ok(head)
    }

    /// Increments the reference count of each frame in `[head, head+n)`.
    pub fn inc_ref_run(&mut self, head: Pfn, n: u64) -> MemResult<()> {
        for i in 0..n {
            self.inc_ref(Pfn(head.0 + i))?;
        }
        Ok(())
    }

    /// Decrements the reference count of each frame in `[head, head+n)`,
    /// freeing those that reach zero.
    pub fn dec_ref_run(&mut self, head: Pfn, n: u64, cycles: &mut Cycles) -> MemResult<()> {
        for i in 0..n {
            self.dec_ref(Pfn(head.0 + i), cycles)?;
        }
        Ok(())
    }

    /// Allocates a zeroed frame with reference count 1.
    pub fn alloc_zeroed(&mut self, cycles: &mut Cycles) -> MemResult<Pfn> {
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let pfn = self.take_frame(cycles)?;
        cycles.charge(self.cost.page_zero);
        self.meta.insert(
            pfn.0,
            FrameMeta {
                refs: 1,
                content: 0,
            },
        );
        self.frames_allocated_total += 1;
        metrics::incr("mem.frame_alloc");
        Ok(pfn)
    }

    /// Allocates a frame holding `content` with reference count 1,
    /// charging a file-read rather than a zero-fill.
    pub fn alloc_filled(&mut self, content: u64, cycles: &mut Cycles) -> MemResult<Pfn> {
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let pfn = self.take_frame(cycles)?;
        cycles.charge(self.cost.file_read_page);
        self.meta.insert(pfn.0, FrameMeta { refs: 1, content });
        self.frames_allocated_total += 1;
        metrics::incr("mem.frame_alloc");
        Ok(pfn)
    }

    /// Allocates a new frame that duplicates `src`'s content (COW break or
    /// eager fork copy).
    pub fn copy_frame(&mut self, src: Pfn, cycles: &mut Cycles) -> MemResult<Pfn> {
        fpr_faults::cross(FaultSite::FrameAlloc).map_err(|_| MemError::OutOfMemory)?;
        let content = self.content(src)?;
        let pfn = self.take_frame(cycles)?;
        cycles.charge(self.cost.page_copy);
        self.meta.insert(pfn.0, FrameMeta { refs: 1, content });
        self.frames_allocated_total += 1;
        self.pages_copied_total += 1;
        metrics::incr("mem.frame_alloc");
        metrics::incr("mem.page_copy");
        Ok(pfn)
    }

    /// Increments the COW reference count of `pfn`.
    pub fn inc_ref(&mut self, pfn: Pfn) -> MemResult<()> {
        let m = self.meta.get_mut(&pfn.0).ok_or(MemError::NotMapped)?;
        m.refs += 1;
        Ok(())
    }

    /// Decrements the reference count, freeing the frame when it reaches
    /// zero. Returns `true` if the frame was freed.
    pub fn dec_ref(&mut self, pfn: Pfn, cycles: &mut Cycles) -> MemResult<bool> {
        let m = self.meta.get_mut(&pfn.0).ok_or(MemError::NotMapped)?;
        debug_assert!(m.refs > 0);
        m.refs -= 1;
        if m.refs == 0 {
            self.meta.remove(&pfn.0);
            self.release_frame(pfn);
            cycles.charge(self.cost.frame_free);
            metrics::incr("mem.frame_free");
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Takes a kernel pin on `pfn`: one additional reference held by a
    /// kernel-side owner (e.g. the exec image cache) rather than a PTE.
    /// The invariant checker accounts pins separately from mappings.
    pub fn pin(&mut self, pfn: Pfn) -> MemResult<()> {
        self.inc_ref(pfn)?;
        *self.pins.entry(pfn.0).or_insert(0) += 1;
        Ok(())
    }

    /// Drops one kernel pin from `pfn`, freeing the frame if that was the
    /// last reference. Returns `true` if the frame was freed.
    pub fn unpin(&mut self, pfn: Pfn, cycles: &mut Cycles) -> MemResult<bool> {
        let n = self.pins.get_mut(&pfn.0).ok_or(MemError::NotMapped)?;
        debug_assert!(*n > 0);
        *n -= 1;
        if *n == 0 {
            self.pins.remove(&pfn.0);
        }
        self.dec_ref(pfn, cycles)
    }

    /// Current kernel-pin count of `pfn` (zero if unpinned).
    pub fn pin_count(&self, pfn: Pfn) -> u32 {
        self.pins.get(&pfn.0).copied().unwrap_or(0)
    }

    /// Snapshot of every pinned frame and its pin count, sorted by PFN.
    pub fn pinned(&self) -> Vec<(Pfn, u32)> {
        let mut v: Vec<(Pfn, u32)> = self.pins.iter().map(|(&p, &n)| (Pfn(p), n)).collect();
        v.sort_by_key(|(p, _)| p.0);
        v
    }

    /// Returns the current reference count of `pfn`.
    pub fn refs(&self, pfn: Pfn) -> MemResult<u32> {
        self.meta
            .get(&pfn.0)
            .map(|m| m.refs)
            .ok_or(MemError::NotMapped)
    }

    /// Reads the logical content stamp of `pfn`.
    pub fn content(&self, pfn: Pfn) -> MemResult<u64> {
        self.meta
            .get(&pfn.0)
            .map(|m| m.content)
            .ok_or(MemError::NotMapped)
    }

    /// Overwrites the logical content stamp of `pfn`.
    ///
    /// The caller (the fault handler / address space) is responsible for
    /// ensuring the frame is exclusively owned or the write is to a shared
    /// mapping; this is a raw store.
    pub fn write_content(&mut self, pfn: Pfn, content: u64) -> MemResult<()> {
        let m = self.meta.get_mut(&pfn.0).ok_or(MemError::NotMapped)?;
        m.content = content;
        Ok(())
    }

    /// Number of live (allocated) frames tracked with metadata.
    pub fn live_frames(&self) -> usize {
        self.meta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(frames: u64) -> (PhysMemory, Cycles) {
        (PhysMemory::new(frames, CostModel::default()), Cycles::new())
    }

    #[test]
    fn alloc_zeroed_has_zero_content_and_one_ref() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.content(f), Ok(0));
        assert_eq!(p.refs(f), Ok(1));
        assert_eq!(p.used_frames(), 1);
        assert!(c.total() > 0);
    }

    #[test]
    fn copy_frame_duplicates_content_independently() {
        let (mut p, mut c) = pm(16);
        let a = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(a, 42).unwrap();
        let b = p.copy_frame(a, &mut c).unwrap();
        assert_eq!(p.content(b), Ok(42));
        p.write_content(a, 7).unwrap();
        assert_eq!(p.content(b), Ok(42), "copy must not alias source");
        assert_eq!(p.pages_copied_total, 1);
    }

    #[test]
    fn refcount_frees_only_at_zero() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.inc_ref(f).unwrap();
        assert_eq!(p.refs(f), Ok(2));
        assert_eq!(p.dec_ref(f, &mut c), Ok(false));
        assert_eq!(p.used_frames(), 1);
        assert_eq!(p.dec_ref(f, &mut c), Ok(true));
        assert_eq!(p.used_frames(), 0);
        assert_eq!(p.refs(f), Err(MemError::NotMapped));
    }

    #[test]
    fn exhaustion_propagates() {
        let (mut p, mut c) = pm(2);
        p.alloc_zeroed(&mut c).unwrap();
        p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.alloc_zeroed(&mut c), Err(MemError::OutOfMemory));
    }

    #[test]
    fn freed_frame_is_reusable() {
        let (mut p, mut c) = pm(1);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(f, 9).unwrap();
        p.dec_ref(f, &mut c).unwrap();
        let g = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.content(g), Ok(0), "recycled frame must be zeroed");
    }

    #[test]
    fn pin_holds_frame_alive_past_last_unmap_ref() {
        let (mut p, mut c) = pm(16);
        let f = p.alloc_zeroed(&mut c).unwrap();
        p.write_content(f, 0xCAFE).unwrap();
        p.pin(f).unwrap();
        assert_eq!(p.refs(f), Ok(2));
        assert_eq!(p.pin_count(f), 1);
        // The mapping reference goes away; the pin keeps the content.
        assert_eq!(p.dec_ref(f, &mut c), Ok(false));
        assert_eq!(p.content(f), Ok(0xCAFE));
        assert_eq!(p.pinned(), vec![(f, 1)]);
        assert_eq!(p.unpin(f, &mut c), Ok(true), "last pin frees");
        assert_eq!(p.pin_count(f), 0);
        assert_eq!(p.used_frames(), 0);
    }

    #[test]
    fn cache_hit_is_cheaper_than_global_alloc_and_refill_batches() {
        let cost = CostModel::default();
        let (mut p, mut c) = pm(1024);
        p.enable_frame_cache(8);
        let before = c.total();
        p.alloc_zeroed(&mut c).unwrap(); // miss: one batched refill
        let refill_cost = c.total() - before;
        assert_eq!(refill_cost, cost.frame_cache_refill + cost.page_zero);
        assert_eq!(p.cached_frames(), 7, "batch of 8 minus the one returned");
        let before = c.total();
        p.alloc_zeroed(&mut c).unwrap(); // hit
        assert_eq!(c.total() - before, cost.frame_cache_hit + cost.page_zero);
        assert!(cost.frame_cache_hit < cost.frame_alloc);
    }

    #[test]
    fn huge_run_is_aligned_contiguous_and_individually_freeable() {
        let (mut p, mut c) = pm(2048);
        let head = p.alloc_zeroed_huge_run(&mut c).unwrap();
        assert_eq!(head.0 % HUGE_PAGES, 0);
        assert_eq!(p.used_frames(), HUGE_PAGES);
        for i in 0..HUGE_PAGES {
            assert_eq!(p.refs(Pfn(head.0 + i)), Ok(1));
            assert_eq!(p.content(Pfn(head.0 + i)), Ok(0));
        }
        // Free half individually; the rest survives.
        for i in 0..HUGE_PAGES / 2 {
            assert_eq!(p.dec_ref(Pfn(head.0 + i), &mut c), Ok(true));
        }
        assert_eq!(p.used_frames(), HUGE_PAGES / 2);
        p.dec_ref_run(Pfn(head.0 + HUGE_PAGES / 2), HUGE_PAGES / 2, &mut c)
            .unwrap();
        assert_eq!(p.used_frames(), 0);
    }

    #[test]
    fn huge_run_fails_fragmented_not_oom_when_frames_exist() {
        let (mut p, mut c) = pm(1024);
        // Take one small frame: the window at 0 is now fragmented.
        let a = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(a.0, 0, "buddy hands out frame 0 first");
        // The second 512-aligned window is still whole.
        match p.alloc_zeroed_huge_run(&mut c) {
            Ok(h) => assert_eq!(h.0, 512),
            Err(e) => panic!("second window should be free: {e:?}"),
        }
        // 511 free frames remain, none forming an aligned run: the mapping
        // must fall back to small pages rather than fail, so the error
        // distinguishes fragmentation from true exhaustion.
        let err = p.alloc_zeroed_huge_run(&mut c).unwrap_err();
        assert!(matches!(err, MemError::Fragmented | MemError::OutOfMemory));
        assert!(p.alloc_zeroed(&mut c).is_ok(), "small pages still available");
    }

    #[test]
    fn thp_stats_accumulate() {
        let (mut p, _c) = pm(16);
        assert_eq!(p.thp_stats(), ThpStats::default());
        p.note_thp_promoted();
        p.note_thp_promoted();
        p.note_thp_demoted();
        p.note_thp_promote_failed();
        let s = p.thp_stats();
        assert_eq!((s.promoted, s.demoted, s.failed), (2, 1, 1));
    }

    #[test]
    fn watermarks_scale_with_total_and_stay_ordered() {
        for total in [4, 64, 256, 4096, 262_144] {
            let w = Watermarks::for_total(total);
            assert!(w.min >= 1, "total={total}");
            assert!(w.min <= w.low && w.low <= w.high, "total={total}");
            assert!(w.high <= total, "total={total}");
        }
    }

    #[test]
    fn pressure_level_tracks_free_frames_across_watermarks() {
        let (mut p, mut c) = pm(256);
        let w = p.watermarks();
        assert_eq!(p.pressure(), PressureLevel::None);
        assert_eq!(p.reclaim_target(), 0);
        let mut frames = Vec::new();
        while p.free_frames() >= w.high {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::Low);
        assert!(p.reclaim_target() > 0);
        while p.free_frames() >= w.low {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::High);
        while p.free_frames() >= w.min {
            frames.push(p.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(p.pressure(), PressureLevel::Critical);
        for f in frames {
            p.dec_ref(f, &mut c).unwrap();
        }
        assert_eq!(p.pressure(), PressureLevel::None);
    }

    #[test]
    fn pressure_levels_are_ordered() {
        assert!(PressureLevel::None < PressureLevel::Low);
        assert!(PressureLevel::Low < PressureLevel::High);
        assert!(PressureLevel::High < PressureLevel::Critical);
    }

    #[test]
    fn stall_accounting_accumulates() {
        let (mut p, _c) = pm(16);
        assert_eq!(p.stall_cycles_total(), 0);
        p.note_stall(100);
        p.note_stall(250);
        assert_eq!(p.stall_cycles_total(), 350);
        assert_eq!(p.stall_events_total(), 2);
    }

    #[test]
    fn cache_disabled_costs_are_identical_to_plain_path() {
        let cost = CostModel::default();
        let (mut p, mut c) = pm(64);
        p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(c.total(), cost.frame_alloc + cost.page_zero);
    }

    #[test]
    fn cached_frames_count_as_free_and_drain_on_disable() {
        let (mut p, mut c) = pm(64);
        p.enable_frame_cache(8);
        let f = p.alloc_zeroed(&mut c).unwrap();
        assert_eq!(p.free_frames(), 63, "magazine frames are still free");
        assert_eq!(p.used_frames(), 1);
        p.dec_ref(f, &mut c).unwrap();
        assert_eq!(p.used_frames(), 0);
        p.disable_frame_cache();
        assert_eq!(p.cached_frames(), 0);
        assert_eq!(p.free_frames(), 64, "drain returned everything to the pool");
    }

    /// Σ cell.drawn + pool.free == pool.total — the conservation law the
    /// SMP driver asserts at quiesce.
    fn assert_conserved(pool: &SharedFramePool, cells: &[&PhysMemory]) {
        let drawn: u64 = cells.iter().map(|c| c.drawn_frames()).sum();
        assert_eq!(
            drawn + pool.free_frames(),
            pool.total_frames(),
            "shared-pool frame conservation"
        );
    }

    #[test]
    fn shared_cells_draw_from_one_pool_and_conserve_frames() {
        let pool = Arc::new(SharedFramePool::new(1024));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut b = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        let fa = a.alloc_zeroed(&mut c).unwrap();
        let fb = b.alloc_zeroed(&mut c).unwrap();
        assert_ne!(fa, fb, "cells never hand out the same frame");
        assert_eq!(a.used_frames(), 1);
        assert_eq!(b.used_frames(), 1);
        // Each cell's first allocation pulled a whole magazine batch.
        assert_eq!(a.drawn_frames(), CELL_MAGAZINE_BATCH);
        assert_conserved(&pool, &[&a, &b]);
        a.dec_ref(fa, &mut c).unwrap();
        b.dec_ref(fb, &mut c).unwrap();
        assert_eq!(a.used_frames(), 0);
        assert_eq!(b.used_frames(), 0);
        assert_conserved(&pool, &[&a, &b]);
        a.disable_frame_cache();
        b.disable_frame_cache();
        assert_eq!(a.drawn_frames(), 0);
        assert_eq!(pool.free_frames(), 1024, "everything returned");
    }

    #[test]
    fn shared_cell_exhaustion_is_machine_wide() {
        let pool = Arc::new(SharedFramePool::new(CELL_MAGAZINE_BATCH));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut b = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        // Cell A drains the whole pool into its magazine and uses it up.
        let mut held = Vec::new();
        for _ in 0..CELL_MAGAZINE_BATCH {
            held.push(a.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(pool.free_frames(), 0);
        // Cell B sees a dry machine (its own magazine is empty and it
        // cannot reach into A's).
        assert_eq!(b.alloc_zeroed(&mut c), Err(MemError::OutOfMemory));
        // A freeing one frame parks it in A's magazine; only a drain or
        // disable returns it to the pool where B can see it.
        a.dec_ref(held.pop().unwrap(), &mut c).unwrap();
        a.disable_frame_cache();
        assert_eq!(pool.free_frames(), 1);
        let f = b.alloc_zeroed(&mut c).unwrap();
        b.dec_ref(f, &mut c).unwrap();
        assert_conserved(&pool, &[&a, &b]);
    }

    #[test]
    fn shared_cell_watermarks_track_pool_pressure() {
        let pool = Arc::new(SharedFramePool::new(256));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        assert_eq!(a.pressure(), PressureLevel::None);
        let mut held = Vec::new();
        while a.free_frames() > 2 {
            held.push(a.alloc_zeroed(&mut c).unwrap());
        }
        assert_eq!(
            a.pressure(),
            PressureLevel::Critical,
            "pool-wide pressure visible from the cell"
        );
        for f in held {
            a.dec_ref(f, &mut c).unwrap();
        }
    }

    #[test]
    fn shared_huge_run_draws_aligned_frames_from_pool() {
        let pool = Arc::new(SharedFramePool::new(2 * HUGE_PAGES));
        let mut a = PhysMemory::new_cell(Arc::clone(&pool), CostModel::free());
        let mut c = Cycles::new();
        let head = a.alloc_zeroed_huge_run(&mut c).unwrap();
        assert_eq!(head.0 % HUGE_PAGES, 0);
        assert_eq!(a.used_frames(), HUGE_PAGES);
        a.dec_ref_run(head, HUGE_PAGES, &mut c).unwrap();
        assert_conserved(&pool, &[&a]);
    }
}
