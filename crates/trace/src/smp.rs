//! Named virtual-time locks for the SMP driver.
//!
//! [`VLock`] wraps a [`std::sync::Mutex`] and prices every hand-off in
//! *virtual* time using the per-thread [`crate::vclock`]: when a thread
//! whose clock reads `t` acquires a lock last released at virtual time
//! `free_at > t`, the acquirer's clock jumps to `free_at` and the wait
//! (`free_at - t`) is recorded against the lock's name in
//! [`crate::metrics::lock_stats`] as one contended acquisition. On
//! release, `free_at` is set to the holder's clock *after* its critical
//! section, so the next contender inherits the serialization cost.
//!
//! This makes lock contention measurable and deterministic-ish on a
//! single host core: the experiment's "where does fork serialize" answer
//! comes from these counters (mm vs pid vs buddy vs tlb), not from
//! wall-clock jitter. A single thread acquiring its own locks never
//! waits — its clock is already at or past every `free_at` it wrote —
//! so single-threaded arms report zero contention by construction.
//!
//! ## Lock-order validation
//!
//! The SMP machine documents one lock order — `mm` → `pid` → `buddy` →
//! `tlb` (ARCHITECTURE.md) — and this module *enforces* it at runtime
//! for exactly those four names. Each thread counts the ranked locks it
//! holds, per rank; acquiring a ranked lock whose rank is not strictly
//! greater than every rank already held (which also catches taking two
//! `mm` locks at once) counts one violation in [`order_violations`] and in
//! the `lock.order.violation` metric, then proceeds. The E17 gate
//! asserts the counter stays at zero across every storm. Locks with any
//! other name (tests, scratch structures) are exempt.
//!
//! ## Deadlock detection
//!
//! Each ranked lock records its holder in the lock itself: an atomic
//! thread id, stored right after the inner mutex is taken and cleared
//! right before it is released. An uncontended acquisition therefore
//! touches only the lock and this thread's own state, never anything
//! process-wide.
//!
//! Only an acquisition that would block registers in a process-wide
//! wait-for graph: an entry from the waiting thread to the awaited
//! lock's holder cell. It then follows the chain thread → holder cell →
//! holding thread → that thread's awaited holder cell → … and looks for
//! a cycle back to itself. A cycle means the machine *would* hang;
//! instead of hanging, the acquirer increments [`deadlocks_detected`],
//! and panics with the full cycle — a deterministic, reportable event.
//! The unwind releases the acquirer's own locks, so surviving threads
//! keep running (and the test harness reports the panic instead of
//! timing out).
//!
//! ```
//! use fpr_trace::{metrics, smp::VLock, vclock};
//!
//! metrics::reset_lock_stats();
//! vclock::reset();
//! let l = VLock::new("mm", 0u64);
//! {
//!     let mut g = l.lock();
//!     *g += 1;
//!     vclock::advance(500); // simulated work inside the critical section
//! }
//! // Same thread, clock already past free_at: no contention recorded.
//! drop(l.lock());
//! assert!(!metrics::lock_stats().contains_key("mm"));
//! ```

use crate::{metrics, vclock};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};

/// The documented SMP lock order; a ranked lock may only be acquired
/// while every held ranked lock has a strictly smaller rank.
const LOCK_ORDER: [&str; 4] = ["mm", "pid", "buddy", "tlb"];

/// Rank of `name` in the documented order, `None` for exempt names.
fn rank_of(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|&n| n == name)
}

/// Process-wide count of lock-order violations (see module docs).
static ORDER_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of would-block cycles caught by the detector.
static DEADLOCKS: AtomicU64 = AtomicU64::new(0);

/// Monotone thread ids, assigned lazily the first time a thread touches
/// a ranked lock. Zero is never assigned: a holder cell reading zero
/// means "free".
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's ranked-lock state.
struct ThreadLocks {
    /// This thread's id, 0 until first assigned.
    id: Cell<u64>,
    /// How many ranked locks of each rank this thread holds.
    held: Cell<[u32; LOCK_ORDER.len()]>,
}

thread_local! {
    static THREAD: ThreadLocks = const {
        ThreadLocks {
            id: Cell::new(0),
            held: Cell::new([0; LOCK_ORDER.len()]),
        }
    };
}

/// Adds `delta` to this thread's count of held locks of `rank`.
fn note_held(rank: usize, delta: i32) {
    THREAD.with(|t| {
        let mut held = t.held.get();
        held[rank] = held[rank].wrapping_add_signed(delta);
        t.held.set(held);
    });
}

/// The process-wide wait-for graph: which thread is blocked on which
/// lock, named by that lock's holder cell. Entries are only added and
/// removed under the graph mutex.
///
/// A cycle found while holding the mutex is a consistent snapshot even
/// though holder cells change outside it. Every thread on the cycle is a
/// registered waiter, and a registered waiter can neither release a lock
/// (it is parked inside an acquisition) nor deregister (that takes the
/// graph mutex) while the finder holds the mutex. So each holder cell on
/// the cycle names a thread that is still blocked and still holds that
/// lock: its last write to the cell, made before it registered, is
/// visible to the finder through the mutex, and no other thread writes
/// its id there.
#[derive(Default)]
struct WaitGraph {
    /// thread id → (holder cell of the lock it is blocked on, lock name).
    waiting: BTreeMap<u64, (Arc<AtomicU64>, &'static str)>,
}

impl WaitGraph {
    /// Follows `start`'s wait chain; returns the lock names on the cycle
    /// if the chain leads back to `start`.
    fn find_cycle(&self, start: u64) -> Option<Vec<&'static str>> {
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            let (cell, name) = self.waiting.get(&cur)?;
            path.push(*name);
            let holder = cell.load(Ordering::Acquire);
            if holder == start {
                return Some(path);
            }
            if path.len() > self.waiting.len() {
                return None; // a loop not involving `start`
            }
            cur = holder;
        }
    }
}

fn graph_lock() -> MutexGuard<'static, WaitGraph> {
    static GRAPH: OnceLock<Mutex<WaitGraph>> = OnceLock::new();
    GRAPH
        .get_or_init(|| Mutex::new(WaitGraph::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide count of lock-order violations since the last
/// [`reset_order_violations`]. The E17 gate requires zero.
pub fn order_violations() -> u64 {
    ORDER_VIOLATIONS.load(Ordering::Relaxed)
}

/// Clears the process-wide violation counter.
pub fn reset_order_violations() {
    ORDER_VIOLATIONS.store(0, Ordering::Relaxed);
}

/// Process-wide count of would-block cycles the deadlock detector has
/// turned into panics.
pub fn deadlocks_detected() -> u64 {
    DEADLOCKS.load(Ordering::Relaxed)
}

/// A named mutex that models contention in virtual time.
#[derive(Debug, Default)]
pub struct VLock<T> {
    name: &'static str,
    /// Rank in the documented order; `None` for exempt names, which
    /// skip order checks and deadlock detection.
    rank: Option<usize>,
    /// Id of the thread holding the lock, 0 when free (ranked locks
    /// only). Shared with the wait-for graph entries of its waiters.
    holder: Arc<AtomicU64>,
    /// Virtual time at which the last holder released the lock.
    free_at: AtomicU64,
    inner: Mutex<T>,
}

impl<T> VLock<T> {
    /// Wraps `value` in a lock whose contention is recorded under `name`.
    pub fn new(name: &'static str, value: T) -> VLock<T> {
        VLock {
            name,
            rank: rank_of(name),
            holder: Arc::default(),
            free_at: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// The name contention is recorded under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock, advancing this thread's virtual clock to the
    /// lock's release time and recording the wait if it had to "spin".
    ///
    /// For the four ranked names the acquisition also checks the
    /// documented lock order and, if it would block, registers in the
    /// wait-for graph; see the module docs.
    ///
    /// Poisoning is ignored: the simulated kernel's own invariants are
    /// checked explicitly at quiesce, and a panicking test thread must
    /// not cascade into every other cell.
    ///
    /// # Panics
    ///
    /// Panics (deterministically, with the cycle) if blocking here would
    /// deadlock the machine.
    pub fn lock(&self) -> VLockGuard<'_, T> {
        let guard = match self.rank {
            None => self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            Some(rank) => self.lock_ranked(rank),
        };
        let now = vclock::now();
        let free_at = self.free_at.load(Ordering::Acquire);
        if free_at > now {
            vclock::advance_to(free_at);
            metrics::lock_contended(self.name, free_at - now);
        }
        VLockGuard { lock: self, guard }
    }

    /// The ranked path: order check, then acquire; only an acquisition
    /// that would block enters the wait-for graph.
    fn lock_ranked(&self, rank: usize) -> MutexGuard<'_, T> {
        let me = THREAD.with(|t| {
            if t.held.get()[rank..].iter().any(|&n| n > 0) {
                ORDER_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
                metrics::incr("lock.order.violation");
            }
            if t.id.get() == 0 {
                t.id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
            }
            t.id.get()
        });
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.register_wait(me);
                let guard = self
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // Deregister before publishing ourselves as holder, so a
                // registered waiter never names the lock it already got.
                graph_lock().waiting.remove(&me);
                guard
            }
        };
        self.holder.store(me, Ordering::Release);
        note_held(rank, 1);
        guard
    }

    /// Registers `me` as blocked on this lock, panicking instead if that
    /// closes a wait cycle.
    fn register_wait(&self, me: u64) {
        let mut g = graph_lock();
        g.waiting.insert(me, (Arc::clone(&self.holder), self.name));
        if let Some(cycle) = g.find_cycle(me) {
            g.waiting.remove(&me);
            drop(g);
            DEADLOCKS.fetch_add(1, Ordering::Relaxed);
            metrics::incr("lock.deadlock.detected");
            panic!(
                "deadlock detected: blocking on \"{}\" closes the wait cycle [{}]",
                self.name,
                cycle.join(" -> ")
            );
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Guard returned by [`VLock::lock`]; stamps the lock's release time
/// from the holder's virtual clock on drop.
pub struct VLockGuard<'a, T> {
    lock: &'a VLock<T>,
    guard: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for VLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for VLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for VLockGuard<'_, T> {
    fn drop(&mut self) {
        // Store before the mutex is released (the field drops after this
        // body), so the next acquirer always observes our release time.
        self.lock.free_at.store(vclock::now(), Ordering::Release);
        if let Some(rank) = self.lock.rank {
            // Clear the holder cell before the mutex releases too: a
            // nonzero cell implies the mutex is genuinely held, which is
            // what makes a found cycle trustworthy.
            self.lock.holder.store(0, Ordering::Release);
            note_held(rank, -1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The violation/deadlock counters are process-global; tests that
    /// read them as before/after deltas must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn uncontended_same_thread_records_nothing() {
        vclock::reset();
        let l = VLock::new("t.smp.solo", 0u32);
        for _ in 0..10 {
            let mut g = l.lock();
            *g += 1;
            vclock::advance(100);
        }
        assert_eq!(*l.lock(), 10);
        assert!(
            !metrics::lock_stats().contains_key("t.smp.solo"),
            "a single thread never contends with itself"
        );
    }

    #[test]
    fn cross_thread_handoff_charges_the_wait() {
        let l = Arc::new(VLock::new("t.smp.pair", ()));
        // Holder: clock at 1000 when it releases.
        {
            let l = l.clone();
            std::thread::spawn(move || {
                vclock::reset();
                let _g = l.lock();
                vclock::advance(1000);
            })
            .join()
            .unwrap();
        }
        // Contender: clock at 100, must jump to 1000 and record 900.
        let l2 = l.clone();
        let waited = std::thread::spawn(move || {
            vclock::reset();
            vclock::advance(100);
            let _g = l2.lock();
            vclock::now()
        })
        .join()
        .unwrap();
        assert_eq!(waited, 1000, "clock advanced to the release time");
        let stats = metrics::lock_stats();
        let s = stats.get("t.smp.pair").expect("contention recorded");
        assert_eq!(s.contended_acquires, 1);
        assert_eq!(s.wait_cycles, 900);
        // The only resetter in this test binary, so the absence check
        // cannot race with a sibling test's recording.
        metrics::reset_lock_stats();
        assert!(!metrics::lock_stats().contains_key("t.smp.pair"));
    }

    #[test]
    fn into_inner_returns_value() {
        let l = VLock::new("t.smp.inner", 7u64);
        assert_eq!(l.into_inner(), 7);
    }

    #[test]
    fn documented_order_is_violation_free() {
        let _s = serial();
        let before = order_violations();
        let mm = VLock::new("mm", ());
        let pid = VLock::new("pid", ());
        let buddy = VLock::new("buddy", ());
        let tlb = VLock::new("tlb", ());
        let _a = mm.lock();
        let _b = pid.lock();
        let _c = buddy.lock();
        let _d = tlb.lock();
        assert_eq!(
            order_violations(),
            before,
            "mm -> pid -> buddy -> tlb is the documented order"
        );
    }

    #[test]
    fn inverted_acquisition_counts_a_violation() {
        let _s = serial();
        let before = order_violations();
        let mm = VLock::new("mm", ());
        let buddy = VLock::new("buddy", ());
        let _b = buddy.lock();
        let _a = mm.lock(); // buddy held while taking mm: inversion
        assert_eq!(order_violations(), before + 1);
    }

    #[test]
    fn two_same_rank_locks_count_a_violation() {
        let _s = serial();
        let before = order_violations();
        let a = VLock::new("mm", ());
        let b = VLock::new("mm", ());
        let _ga = a.lock();
        let _gb = b.lock(); // second mm while the first is held
        assert_eq!(order_violations(), before + 1);
    }

    #[test]
    fn release_clears_held_tracking() {
        let _s = serial();
        let before = order_violations();
        let a = VLock::new("pid", ());
        let b = VLock::new("pid", ());
        drop(a.lock());
        drop(b.lock()); // sequential same-rank acquisitions are fine
        assert_eq!(order_violations(), before);
    }

    #[test]
    fn unranked_names_are_exempt() {
        let _s = serial();
        let before = order_violations();
        let x = VLock::new("t.smp.x", ());
        let y = VLock::new("t.smp.y", ());
        let _gy = y.lock();
        let _gx = x.lock();
        assert_eq!(order_violations(), before, "unranked locks have no order");
    }

    #[test]
    fn would_block_cycle_panics_deterministically_instead_of_hanging() {
        use std::sync::Barrier;
        let _s = serial();
        let a = Arc::new(VLock::new("mm", 0u32));
        let b = Arc::new(VLock::new("mm", 0u32));
        let gate = Arc::new(Barrier::new(2));
        let before = deadlocks_detected();
        let spawn = |first: Arc<VLock<u32>>, second: Arc<VLock<u32>>, gate: Arc<Barrier>| {
            std::thread::spawn(move || {
                let _g1 = first.lock();
                gate.wait(); // both threads hold their first lock
                let _g2 = second.lock(); // ... and cross over
            })
        };
        let t1 = spawn(Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
        let t2 = spawn(Arc::clone(&b), Arc::clone(&a), Arc::clone(&gate));
        let r1 = t1.join();
        let r2 = t2.join();
        assert!(
            r1.is_err() ^ r2.is_err(),
            "exactly one thread panics out of the cycle; the other completes"
        );
        assert_eq!(deadlocks_detected(), before + 1);
        let panicked = if r1.is_err() { r1 } else { r2 };
        let msg = panicked.unwrap_err();
        let msg = msg
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("deadlock detected"),
            "panic names the event: {msg}"
        );
    }

    #[test]
    fn three_thread_wait_cycle_is_found_through_every_holder_cell() {
        use std::sync::Barrier;
        let _s = serial();
        let locks: Vec<Arc<VLock<u32>>> = (0..3).map(|_| Arc::new(VLock::new("mm", 0))).collect();
        let gate = Arc::new(Barrier::new(3));
        let before = deadlocks_detected();
        // Thread i holds lock i, then blocks on lock i+1 (mod 3): the
        // last thread to block closes a three-hop cycle, found only by
        // following each awaited lock's holder cell to its holder's own
        // registered wait.
        // Each thread signals on exit, panicking or not, so a detector
        // that misses the cycle fails the test instead of hanging it.
        struct Done(std::sync::mpsc::Sender<()>);
        impl Drop for Done {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let first = Arc::clone(&locks[i]);
                let second = Arc::clone(&locks[(i + 1) % 3]);
                let gate = Arc::clone(&gate);
                let done = Done(tx.clone());
                std::thread::spawn(move || {
                    let _done = done;
                    let _g1 = first.lock();
                    gate.wait();
                    let _g2 = second.lock();
                })
            })
            .collect();
        for _ in 0..3 {
            rx.recv_timeout(std::time::Duration::from_secs(30))
                .expect("wait cycle went undetected: the threads are deadlocked");
        }
        let results: Vec<_> = threads.into_iter().map(|t| t.join()).collect();
        let panicked: Vec<_> = results.into_iter().filter_map(Result::err).collect();
        assert_eq!(
            panicked.len(),
            1,
            "exactly one thread panics out of the cycle; its unwind frees the other two"
        );
        assert_eq!(deadlocks_detected(), before + 1);
        let msg = panicked[0]
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("[mm -> mm -> mm]"),
            "the reported cycle has all three hops: {msg}"
        );
        for l in &locks {
            assert_eq!(
                l.holder.load(Ordering::Relaxed),
                0,
                "every holder cell cleared"
            );
        }
        assert!(graph_lock().waiting.is_empty(), "no waiter left registered");
    }
}
