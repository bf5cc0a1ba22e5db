//! The forkroad benchmark: three workloads that load the fork-heavy and
//! the spawn-heavy patterns side by side, measured end to end and layer
//! by layer on two clocks — simulated cycles and host time.
//!
//! See `README.md` for why each workload exists, which layers it loads
//! and bypasses, and which metrics a change to each layer should move.

pub mod probe;
pub mod report;
pub mod request;
pub mod round;
pub mod serve;
pub mod smp;
pub mod snapshot;
pub mod stats;

use round::{ns_since, Round, Scale};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E15's open-loop front end over all five creation paths.
    Serve,
    /// BGSAVE-style snapshots of a store under memory pressure.
    Snapshot,
    /// Two threads spawning on a three-cell SMP machine.
    Smp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Snapshot, Workload::Smp];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Snapshot => "snapshot",
            Workload::Smp => "smp",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a seed fixes every simulated number. SMP virtual lock
    /// waits depend on how the host schedules the worker threads.
    pub fn deterministic(self) -> bool {
        self != Workload::Smp
    }

    /// Runs one round from `seed`.
    pub fn round(self, seed: u64, scale: Scale, traced: bool) -> Round {
        match self {
            Workload::Serve => serve::run(serve::setup(seed, scale), traced),
            Workload::Snapshot => snapshot::run(snapshot::setup(seed, scale), traced),
            Workload::Smp => smp::run(smp::setup(seed, scale), traced),
        }
    }

    /// Host ns of one set-up from `seed`, without the run.
    pub fn setup_ns(self, seed: u64, scale: Scale) -> u64 {
        let t = Instant::now();
        match self {
            Workload::Serve => drop_after(t, serve::setup(seed, scale)),
            Workload::Snapshot => drop_after(t, snapshot::setup(seed, scale)),
            Workload::Smp => drop_after(t, smp::setup(seed, scale)),
        }
    }
}

/// Host ns since `t`, taken before `world` is torn down.
fn drop_after<T>(t: Instant, world: T) -> u64 {
    let ns = ns_since(t);
    drop(world);
    ns
}
