//! `snapshot`: Redis-style BGSAVE in a loop over a 64 MiB store.
//!
//! The store is a 16384-page process on a machine with about 1k spare
//! frames, a swap device and `OvercommitPolicy::Always`. Each snapshot
//! forks a child (alternating `fork(Cow)` and `fork(OnDemand)`); while it
//! lives the parent writes 2048 seeded random pages, then the child reads
//! every 16th page and must see the values of the moment it was forked.
//! This is the paper's COW-and-overcommit charge: the only workload that
//! loads the fork page-table walk, COW and unshare faults, and swap. It
//! has no exec and no spawn.

use crate::probe::{Layer, Probe, SimClock};
use crate::request::reap;
use crate::round::{ns_since, Round, Scale, CYCLES_PER_SEC};
use forkroad_core::{Os, OsConfig};
use fpr_api::fork_from_thread;
use fpr_kernel::{KernelBaseline, MachineConfig, Pid};
use fpr_mem::{ForkMode, OvercommitPolicy, VmaKind, Vpn};
use fpr_rng::Rng;
use fpr_trace::{metrics, ProcessShape};
use std::time::Instant;

/// The child reads every this many pages of the store.
pub const READ_STRIDE: usize = 16;

/// Frames the store's process needs beyond its own pages (page tables,
/// the executable image, init), measured on this machine shape.
const STORE_OVERHEAD_FRAMES: u64 = 8;

/// Swap-device slots: far more than a snapshot can push out.
const SWAP_SLOTS: u64 = 16_384;

/// `(snapshots, store pages, parent writes per snapshot)` of a round.
fn size(scale: Scale) -> (usize, u64, usize) {
    match scale {
        Scale::Full => (1_000, 16_384, 2_048),
        Scale::Tiny => (8, 1_024, 128),
    }
}

/// The seeded dirty-page stream: `(page index, value)` for each parent
/// write, `writes` per snapshot, drawn from its own fork of the seed.
pub struct DirtyStream {
    rng: Rng,
    pages: usize,
}

impl DirtyStream {
    /// The stream for `seed` over a store of `pages` pages.
    pub fn new(seed: u64, pages: usize) -> DirtyStream {
        let mut root = Rng::seed_from_u64(seed);
        DirtyStream {
            rng: root.fork_stream(),
            pages,
        }
    }

    /// Fills `out` with the next snapshot's `writes` writes.
    pub fn next_snapshot(&mut self, writes: usize, out: &mut Vec<(usize, u64)>) {
        out.clear();
        out.extend((0..writes).map(|_| (self.rng.gen_index(self.pages), self.rng.gen_u64())));
    }
}

/// A booted machine with the populated store, before the first snapshot.
pub struct World {
    os: Os,
    base: KernelBaseline,
    store: Pid,
    vpns: Vec<Vpn>,
    seed: u64,
    snapshots: usize,
    writes: usize,
}

/// Boots the machine and populates the store.
pub fn setup(seed: u64, scale: Scale) -> World {
    let (snapshots, store_pages, writes) = size(scale);
    let mut os = Os::boot(OsConfig {
        machine: MachineConfig {
            frames: store_pages + STORE_OVERHEAD_FRAMES + writes as u64 / 2,
            swap_slots: SWAP_SLOTS,
            overcommit: OvercommitPolicy::Always,
            ..MachineConfig::default()
        },
        seed,
        ..OsConfig::default()
    });
    let base = os.kernel.baseline();
    let store = os
        .make_parent(ProcessShape::with_heap(store_pages))
        .expect("store fits");
    let vpns: Vec<Vpn> = os
        .kernel
        .process(store)
        .expect("store alive")
        .aspace
        .vmas()
        .filter(|v| v.kind == VmaKind::Mmap)
        .flat_map(|v| (0..v.pages).map(move |i| v.start.add(i)))
        .collect();
    assert_eq!(vpns.len() as u64, store_pages, "store layout");
    World {
        os,
        base,
        store,
        vpns,
        seed,
        snapshots,
        writes,
    }
}

/// Takes the seeded snapshots, then checks the store, tears the world
/// down and checks the kernel.
pub fn run(world: World, traced: bool) -> Round {
    let World {
        mut os,
        base,
        store,
        vpns,
        seed,
        snapshots,
        writes,
    } = world;
    let mut dirty = DirtyStream::new(seed, vpns.len());
    let tid = os.kernel.process(store).expect("store alive").main_tid();
    let mut r = Round::default();

    // The store's contents as the parent last wrote them (populated pages
    // read zero).
    let mut shadow = vec![0u64; vpns.len()];
    let mut batch = Vec::with_capacity(writes);
    let mut probe = Probe::new(SimClock::Kernel, traced);
    metrics::reset();
    let kills = os.kernel.oom_kills.len();
    let mut peak = 0u64;
    let t = Instant::now();
    for i in 0..snapshots {
        dirty.next_snapshot(writes, &mut batch);
        let frozen = shadow.clone();
        let (layer, mode) = if i % 2 == 0 {
            (Layer::ForkCow, ForkMode::Cow)
        } else {
            (Layer::ForkOnDemand, ForkMode::OnDemand)
        };
        r.attempted += 1;
        let s = probe.begin(i as u32, probe.sim_now(&os));
        let mut mismatches = 0u64;
        let saved = (|| {
            let (child, _) = probe
                .call(layer, &mut os, |os| {
                    fork_from_thread(&mut os.kernel, store, tid, mode)
                })
                .map_err(|e| format!("fork: {e}"))?;
            for &(page, val) in &batch {
                probe
                    .call(Layer::WriteMem, &mut os, |os| {
                        os.kernel.write_mem(store, vpns[page], val)
                    })
                    .map_err(|e| format!("parent write: {e}"))?;
                shadow[page] = val;
            }
            for page in (0..vpns.len()).step_by(READ_STRIDE) {
                let seen = probe
                    .call(Layer::ReadMem, &mut os, |os| {
                        os.kernel.read_mem(child, vpns[page])
                    })
                    .map_err(|e| format!("child read: {e}"))?;
                mismatches += u64::from(seen != frozen[page]);
            }
            // The footprint peaks while the child lives: its COW copies
            // count whether they stay resident or go to swap.
            let phys = &os.kernel.phys;
            peak = peak.max(phys.used_frames() + phys.swap().used_slots());
            reap(&mut os, &mut probe, store, child)
        })();
        let done = probe.end(s, probe.sim_now(&os));
        match saved {
            Ok(()) if mismatches == 0 && os.kernel.oom_kills.len() == kills => {
                r.req_sim.push(done.sim);
                r.req_host.push(done.host_ns);
            }
            Ok(()) => {
                r.failed += 1;
                if mismatches > 0 {
                    r.problems
                        .push(format!("snapshot {i}: {mismatches} pages not isolated"));
                }
            }
            Err(e) => {
                r.failed += 1;
                r.problems.push(format!("snapshot {i}: {e}"));
            }
        }
    }
    r.loop_ns = ns_since(t);
    r.peak_pages = peak;
    r.thread_ns = r.loop_ns;
    r.loop_sim = r.req_sim.iter().sum();
    r.counters = metrics::snapshot();
    r.sim_rps = r.req_sim.len() as f64 / (r.loop_sim as f64 / CYCLES_PER_SEC);
    r.probes.push(probe);

    if os.kernel.oom_kills.len() != kills {
        r.problems
            .push(format!("{} OOM kills", os.kernel.oom_kills.len() - kills));
    }
    // The parent must still hold exactly what it wrote.
    let lost = vpns
        .iter()
        .zip(&shadow)
        .filter(|&(&vpn, &want)| os.kernel.read_mem(store, vpn) != Ok(want))
        .count();
    if lost > 0 {
        r.problems.push(format!("store lost {lost} of its writes"));
    }
    let init = os.init;
    if let Err(e) = os
        .kernel
        .exit(store, 0)
        .and_then(|()| os.kernel.waitpid(init, Some(store)))
    {
        r.problems.push(format!("teardown: {e}"));
    }
    r.check_kernel("snapshot", &os.kernel, &base);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_stream_is_seeded() {
        let draw = |seed| {
            let mut d = DirtyStream::new(seed, 1_000);
            let mut out = Vec::new();
            d.next_snapshot(500, &mut out);
            out
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
        assert!(draw(4).iter().all(|&(p, _)| p < 1_000));
    }

    #[test]
    fn tiny_round_isolates_swaps_and_repeats_exactly() {
        let a = run(setup(9, Scale::Tiny), false);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(a.failed, 0);
        assert_eq!(a.req_sim.len(), 8);
        assert!(
            a.counters.counter("mem.swap.out") > 0,
            "the store must swap"
        );
        assert!(a.counters.counter("mem.fault.cow_copy") > 0);
        assert!(
            a.peak_pages > 1_024 + a.counters.counter("mem.fault.cow_copy") / 8,
            "the live child's COW copies count in the peak"
        );
        let b = run(setup(9, Scale::Tiny), true);
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        assert!(a.same_simulation(&b), "tracing changed the simulation");
        assert_eq!(b.probes[0].sum_mismatches, 0);
    }
}
