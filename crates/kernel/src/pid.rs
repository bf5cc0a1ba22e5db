//! Process and thread identifier allocation.
//!
//! Two layers: [`PidAllocator`] is one bitmap, and [`ShardedPidTable`]
//! stripes the PID space across several independently locked allocators
//! so concurrent creators on different cells rarely touch the same lock — fork storms serialize on the memory subsystem,
//! not on handing out numbers. Each shard's lock is a
//! [`fpr_trace::smp::VLock`] named `"pid"`, so residual contention (the
//! overflow scan when a home shard runs dry) is visible in
//! [`fpr_trace::metrics::lock_stats`].

use crate::error::{Errno, KResult};
use fpr_faults::FaultSite;
use fpr_trace::smp::VLock;
use std::collections::BTreeSet;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// A thread identifier, unique within the whole machine (like Linux TIDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Allocates PIDs with wraparound and recycling, like Linux's pid bitmap.
#[derive(Debug, Clone)]
pub struct PidAllocator {
    next: u32,
    max: u32,
    in_use: BTreeSet<u32>,
}

impl PidAllocator {
    /// Creates an allocator handing out PIDs `1..=max`.
    pub fn new(max: u32) -> Self {
        PidAllocator {
            next: 1,
            max,
            in_use: BTreeSet::new(),
        }
    }

    /// Allocates the next free PID, wrapping at `max`.
    ///
    /// Fails with [`Errno::Eagain`] when the PID space is exhausted —
    /// the error a fork bomb eventually sees. Crosses no fault site:
    /// [`ShardedPidTable::alloc`] crosses it once per machine-wide
    /// allocation, so an injected fault is never masked by the overflow
    /// scan over shards.
    pub fn alloc(&mut self) -> KResult<Pid> {
        if self.in_use.len() as u32 >= self.max {
            return Err(Errno::Eagain);
        }
        loop {
            let candidate = self.next;
            self.next = if self.next >= self.max {
                1
            } else {
                self.next + 1
            };
            if self.in_use.insert(candidate) {
                return Ok(Pid(candidate));
            }
        }
    }

    /// Returns a PID to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the PID was not allocated.
    pub fn free(&mut self, pid: Pid) {
        assert!(
            self.in_use.remove(&pid.0),
            "freeing unallocated pid {}",
            pid.0
        );
    }

    /// Number of live PIDs.
    pub fn live(&self) -> usize {
        self.in_use.len()
    }

    /// The maximum simultaneously live PIDs.
    pub fn capacity(&self) -> u32 {
        self.max
    }

    /// Marks a PID allocated elsewhere (a [`ShardedPidTable`]) as live in
    /// this allocator, so per-cell invariants over [`PidAllocator::live`]
    /// keep holding when the machine-wide table hands out the numbers.
    ///
    /// # Panics
    ///
    /// Panics if the PID is already live here.
    pub fn adopt(&mut self, pid: Pid) {
        assert!(
            self.in_use.insert(pid.0),
            "adopting already-live pid {}",
            pid.0
        );
    }
}

/// A machine-wide PID space striped across independently locked shards.
///
/// Shard `s` owns every PID congruent to `s + 1` modulo the shard count
/// (PID 0 stays unused, like the idle task): shard 0 of 4 hands out
/// 1, 5, 9, …; shard 1 hands out 2, 6, 10, …. Each cell allocates from
/// its *home* shard first and only scans the others when that shard is
/// exhausted, so uncontended creation storms never collide on a lock.
/// Every shard is a [`PidAllocator`] underneath. A one-cell machine's
/// table has a single shard and hands out 1, 2, 3, … exactly like one
/// bitmap.
#[derive(Debug)]
pub struct ShardedPidTable {
    shards: Vec<VLock<PidAllocator>>,
}

impl ShardedPidTable {
    /// Creates a table of `shards` stripes covering `max_pids` PIDs in
    /// total (each shard owns an equal slice, at least one PID).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, max_pids: u32) -> ShardedPidTable {
        assert!(shards > 0, "need at least one pid shard");
        let per = (max_pids / shards as u32).max(1);
        ShardedPidTable {
            shards: (0..shards)
                .map(|_| VLock::new("pid", PidAllocator::new(per)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Translates shard-local PID `inner` of shard `s` to the machine-wide
    /// PID.
    fn global_pid(&self, s: usize, inner: Pid) -> Pid {
        Pid((inner.0 - 1) * self.shards.len() as u32 + s as u32 + 1)
    }

    /// The shard owning a machine-wide PID.
    fn shard_of(&self, pid: Pid) -> (usize, Pid) {
        let s = ((pid.0 - 1) % self.shards.len() as u32) as usize;
        let inner = (pid.0 - 1) / self.shards.len() as u32 + 1;
        (s, Pid(inner))
    }

    /// Allocates a PID, trying the caller's home shard first and scanning
    /// the others only on exhaustion. Crosses [`FaultSite::PidAlloc`]
    /// exactly once. Fails with [`Errno::Eagain`] when every shard is
    /// dry.
    pub fn alloc(&self, home: usize) -> KResult<Pid> {
        fpr_faults::cross(FaultSite::PidAlloc).map_err(|_| Errno::Eagain)?;
        let n = self.shards.len();
        let mut last = Err(Errno::Eagain);
        for i in 0..n {
            let s = (home + i) % n;
            match self.shards[s].lock().alloc() {
                Ok(inner) => return Ok(self.global_pid(s, inner)),
                Err(e) => last = Err(e),
            }
        }
        last
    }

    /// Returns a PID to its owning shard.
    ///
    /// # Panics
    ///
    /// Panics if the PID was not allocated by this table.
    pub fn free(&self, pid: Pid) {
        let (s, inner) = self.shard_of(pid);
        self.shards[s].lock().free(inner);
    }

    /// Machine-wide count of live PIDs.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live()).sum()
    }
}

/// Allocates machine-wide thread IDs monotonically.
#[derive(Debug, Clone, Default)]
pub struct TidAllocator {
    next: u64,
}

impl TidAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh TID.
    pub fn alloc(&mut self) -> Tid {
        self.next += 1;
        Tid(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_start_at_one_and_increment() {
        let mut a = PidAllocator::new(100);
        assert_eq!(a.alloc().unwrap(), Pid(1));
        assert_eq!(a.alloc().unwrap(), Pid(2));
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn exhaustion_is_eagain() {
        let mut a = PidAllocator::new(3);
        for _ in 0..3 {
            a.alloc().unwrap();
        }
        assert_eq!(a.alloc(), Err(Errno::Eagain));
        a.free(Pid(2));
        assert_eq!(a.alloc().unwrap(), Pid(2), "wraps and recycles");
    }

    #[test]
    fn wraparound_skips_live_pids() {
        let mut a = PidAllocator::new(4);
        let pids: Vec<Pid> = (0..4).map(|_| a.alloc().unwrap()).collect();
        a.free(pids[0]);
        a.free(pids[2]);
        // next wrapped to 1; both 1 and 3 free.
        assert_eq!(a.alloc().unwrap(), Pid(1));
        assert_eq!(a.alloc().unwrap(), Pid(3));
    }

    #[test]
    #[should_panic(expected = "unallocated pid")]
    fn free_unallocated_panics() {
        let mut a = PidAllocator::new(4);
        a.free(Pid(1));
    }

    #[test]
    fn tids_are_unique() {
        let mut t = TidAllocator::new();
        let a = t.alloc();
        let b = t.alloc();
        assert_ne!(a, b);
    }

    #[test]
    fn adopt_marks_foreign_pids_live() {
        let mut a = PidAllocator::new(8);
        a.adopt(Pid(5));
        assert_eq!(a.live(), 1);
        a.free(Pid(5));
        assert_eq!(a.live(), 0);
    }

    #[test]
    #[should_panic(expected = "already-live pid")]
    fn double_adopt_panics() {
        let mut a = PidAllocator::new(8);
        a.adopt(Pid(5));
        a.adopt(Pid(5));
    }

    #[test]
    fn shards_stripe_the_pid_space_disjointly() {
        let t = ShardedPidTable::new(4, 4096);
        // Home shards hand out their own residue classes.
        assert_eq!(t.alloc(0).unwrap(), Pid(1));
        assert_eq!(t.alloc(1).unwrap(), Pid(2));
        assert_eq!(t.alloc(2).unwrap(), Pid(3));
        assert_eq!(t.alloc(3).unwrap(), Pid(4));
        assert_eq!(t.alloc(0).unwrap(), Pid(5));
        assert_eq!(t.live(), 5);
        t.free(Pid(1));
        t.free(Pid(5));
        // Shard 0's cursor moved past inner 1 and 2; the next alloc stays
        // in its residue class (1 mod 4) without reusing freed pids yet.
        assert_eq!(t.alloc(0).unwrap(), Pid(9));
        t.free(Pid(9));
        t.free(Pid(2));
        t.free(Pid(3));
        t.free(Pid(4));
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn exhausted_home_shard_overflows_to_neighbours() {
        let t = ShardedPidTable::new(2, 4); // 2 pids per shard
        assert_eq!(t.alloc(0).unwrap(), Pid(1));
        assert_eq!(t.alloc(0).unwrap(), Pid(3));
        // Home shard 0 is dry; the scan lands on shard 1.
        assert_eq!(t.alloc(0).unwrap(), Pid(2));
        assert_eq!(t.alloc(0).unwrap(), Pid(4));
        assert_eq!(t.alloc(0), Err(Errno::Eagain), "machine-wide exhaustion");
        assert_eq!(t.alloc(1), Err(Errno::Eagain));
    }

    #[test]
    fn sharded_alloc_crosses_the_pid_fault_site() {
        let t = ShardedPidTable::new(2, 64);
        let (res, trace) = fpr_faults::with_plan(
            fpr_faults::FaultPlan::passive().fail_at(FaultSite::PidAlloc, 0),
            || t.alloc(0),
        );
        assert_eq!(trace.injected().len(), 1);
        assert_eq!(
            res,
            Err(Errno::Eagain),
            "injected fault surfaces — the overflow scan must not mask it"
        );
        assert_eq!(t.live(), 0, "no pid leaked by the failed attempt");
    }
}
