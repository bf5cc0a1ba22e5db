//! One round of a workload: a complete, seeded episode from boot to
//! teardown, and everything it measured.
//!
//! A run repeats rounds of the same seed until its time is up. On the
//! single-threaded workloads every round must then reproduce the first
//! one's simulated numbers exactly, which is itself a correctness check.

use crate::probe::Probe;
use fpr_kernel::{Kernel, KernelBaseline};
use fpr_trace::metrics::{LockStats, Snapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulated cycles per second (the cost model's 3 GHz clock).
pub const CYCLES_PER_SEC: f64 = fpr_mem::CYCLES_PER_US as f64 * 1e6;

/// The executable every request's child runs.
pub const SERVICE_BIN: &str = "/bin/tool";

/// How big a round is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// A few requests over a small parent, for the smoke tests.
    Tiny,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Host ns of the timed loop, wall clock.
    pub loop_ns: u64,
    /// Host ns of the timed loop summed over worker threads.
    pub thread_ns: u64,
    /// Simulated cycles of the timed loop summed over worker threads.
    pub loop_sim: u64,
    /// Operations attempted (requests, snapshots, or SMP ops).
    pub attempted: u64,
    /// Operations that failed: an `Err`, an OOM kill, a non-zero exit
    /// status, or a snapshot-isolation mismatch.
    pub failed: u64,
    /// Simulated latency of each completed operation, cycles.
    pub req_sim: Vec<u64>,
    /// Host latency of each completed operation, ns.
    pub req_host: Vec<u64>,
    /// Completed operations per simulated second.
    pub sim_rps: f64,
    /// Peak pages in use, in frames or in swap slots.
    pub peak_pages: u64,
    /// `fpr_trace::metrics` counters over the timed loop.
    pub counters: Snapshot,
    /// Named-lock contention over the timed loop.
    pub locks: BTreeMap<&'static str, LockStats>,
    /// One probe per worker thread (spans when traced); its length is the
    /// number of threads that ran operations.
    pub probes: Vec<Probe>,
    /// End-of-round check failures; any fails the run.
    pub problems: Vec<String>,
}

impl Round {
    /// True when `other` measured the same simulated run: identical
    /// per-operation cycles, peak, counters and failures.
    pub fn same_simulation(&self, other: &Round) -> bool {
        self.req_sim == other.req_sim
            && self.peak_pages == other.peak_pages
            && self.failed == other.failed
            && self.counters == other.counters
    }

    /// Records `kernel`'s structural and leak checks against `base`.
    pub fn check_kernel(&mut self, what: &str, kernel: &Kernel, base: &KernelBaseline) {
        if let Err(v) = kernel.check_invariants() {
            self.problems
                .extend(v.into_iter().map(|e| format!("{what} invariant: {e}")));
        }
        if let Err(v) = kernel.leak_check(base) {
            self.problems
                .extend(v.into_iter().map(|e| format!("{what} leak: {e}")));
        }
    }
}

/// Host ns since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
