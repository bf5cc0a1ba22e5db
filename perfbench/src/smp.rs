//! `smp`: two worker threads on a three-cell `SmpOs`.
//!
//! Each worker serves its own Poisson stream of requests, spawning through
//! the fast path in its own home cell (cells 1 and 2). One request in
//! eight is instead a `fork(Cow)`+exec of a shared 256-page front end in
//! cell 0, which is no worker's home: with the front end in a home cell,
//! the host mutex starves the other worker and the virtual waits collapse
//! into one jump. This is the only workload that loads `VLock` waits, the
//! `SharedFramePool` magazines and the sharded PID table; its fork
//! page-table walk is small.

use crate::probe::{Probe, SimClock};
use crate::request::{self, next_arrival, FastPath, Path, POOL_TARGET};
use crate::round::{ns_since, Round, Scale, CYCLES_PER_SEC, SERVICE_BIN};
use forkroad_core::{OsConfig, SmpOs};
use fpr_kernel::{KernelBaseline, MachineConfig, Pid};
use fpr_mem::OvercommitPolicy;
use fpr_rng::Rng;
use fpr_trace::{metrics, vclock, ProcessShape};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads; worker `w` lives in cell `w + 1`.
pub const WORKERS: usize = 2;

/// One op in this many is a fork of the shared front end.
pub const FORK_ONE_IN: u64 = 8;

/// Offered arrival rate per worker, requests per simulated second: each
/// worker is about 55% busy.
pub const OFFERED_PER_WORKER: f64 = 125_000.0;

/// Heap pages of the shared front end in cell 0.
pub const FRONT_PAGES: u64 = 256;

/// Ops per worker in a round.
fn ops(scale: Scale) -> usize {
    match scale {
        Scale::Full => 20_000,
        Scale::Tiny => 48,
    }
}

/// Each worker's seeded request stream: `(arrival cycle, fork)` per
/// request, where `fork` marks a fork of the front end. Each worker draws
/// its arrivals and its kinds from two forks of the seed of its own.
pub fn plans(seed: u64, ops: usize) -> Vec<Vec<(u64, bool)>> {
    let mut root = Rng::seed_from_u64(seed);
    (0..WORKERS)
        .map(|_| {
            let (mut gaps, mut kinds) = (root.fork_stream(), root.fork_stream());
            let mut t = 0;
            (0..ops)
                .map(|_| {
                    t = next_arrival(&mut gaps, t, OFFERED_PER_WORKER);
                    (t, kinds.gen_below(FORK_ONE_IN) == 0)
                })
                .collect()
        })
        .collect()
}

/// What one worker measured.
#[derive(Debug, Default)]
struct WorkerOut {
    probe: Option<Probe>,
    attempted: u64,
    failed: u64,
    req_sim: Vec<u64>,
    req_host: Vec<u64>,
    peak_pages: u64,
    loop_ns: u64,
    problems: Vec<String>,
}

fn worker(
    w: usize,
    smp: &SmpOs,
    plan: &[(u64, bool)],
    front: Pid,
    fast: &FastPath,
    traced: bool,
) -> WorkerOut {
    let home = w + 1;
    let mut out = WorkerOut::default();
    let mut probe = Probe::new(SimClock::Virtual, traced);
    let pool = &smp.shared.pool;
    // The worker's queue, kept in service cycles: a request waits for the
    // ones before it, as on `serve`.
    let mut clock = 0u64;
    let t = Instant::now();
    for (i, &(arrival, fork)) in plan.iter().enumerate() {
        clock = clock.max(arrival);
        out.attempted += 1;
        let s = probe.begin(i as u32, vclock::now());
        let (served, wait) = if fork {
            let (mut os, wait) = probe.lock(smp.cell(0));
            let served = request::serve(&mut os, &mut probe, front, Path::ForkCow, None);
            (served, wait)
        } else {
            let (mut os, wait) = probe.lock(smp.cell(home));
            let init = os.init;
            let served = request::serve(&mut os, &mut probe, init, Path::SpawnFast, Some(fast))
                .and_then(|()| fast.autoscale(&mut probe, &mut os));
            (served, wait)
        };
        let done = probe.end(s, vclock::now());
        match served {
            Ok(()) => {
                // Queue on service time in the cell, less the wait for the
                // cell's lock, which follows the host's thread schedule;
                // it counts in the slowest worker's time (`sim_rps`) and
                // in lock.mm.wait_us instead. Waits for the pid, buddy
                // and tlb locks inside the layer calls stay in.
                clock += done.sim - wait;
                out.req_sim.push(clock - arrival);
                out.req_host.push(done.host_ns);
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("worker {w} op {i}: {e}"));
            }
        }
        out.peak_pages = out.peak_pages.max(pool.total_frames() - pool.free_frames());
    }
    out.loop_ns = ns_since(t);
    out.probe = Some(probe);
    out
}

/// A booted three-cell machine: the front end in cell 0, a full warm
/// pool in each worker's cell.
pub struct World {
    smp: SmpOs,
    bases: Vec<KernelBaseline>,
    front: Pid,
    fasts: Vec<FastPath>,
    seed: u64,
    ops: usize,
}

/// Boots the cells, populates the front end and prefills the pools.
pub fn setup(seed: u64, scale: Scale) -> World {
    let smp = SmpOs::boot(
        OsConfig {
            machine: MachineConfig {
                frames: 65_536,
                overcommit: OvercommitPolicy::Always,
                ..MachineConfig::default()
            },
            seed,
            ..OsConfig::default()
        },
        WORKERS + 1,
    );
    let mut bases = Vec::new();
    let front = {
        let mut os = smp.cell(0).lock();
        bases.push(os.kernel.baseline());
        os.make_parent(ProcessShape::with_heap(FRONT_PAGES))
            .expect("front end fits")
    };
    let fasts = (1..=WORKERS)
        .map(|c| {
            let mut os = smp.cell(c).lock();
            let fast = FastPath::enable(&mut os);
            bases.push(os.kernel.baseline());
            os.pool_prefill(SERVICE_BIN, POOL_TARGET).expect("prefill");
            fast
        })
        .collect();
    World {
        smp,
        bases,
        front,
        fasts,
        seed,
        ops: ops(scale),
    }
}

/// Runs both workers over their seeded op streams, then tears the cells
/// down and checks them.
pub fn run(world: World, traced: bool) -> Round {
    let World {
        smp,
        bases,
        front,
        fasts,
        seed,
        ops,
    } = world;
    let plans = plans(seed, ops);
    let mut r = Round::default();

    metrics::reset_global();
    metrics::reset_lock_stats();
    let order_violations = fpr_trace::smp::order_violations();
    let outs: Vec<Mutex<WorkerOut>> = (0..WORKERS).map(|_| Mutex::default()).collect();
    let t = Instant::now();
    let elapsed = smp.run(WORKERS, |w, smp| {
        let out = worker(w, smp, &plans[w], front, &fasts[w], traced);
        *outs[w].lock().expect("worker result slot") = out;
    });
    r.loop_ns = ns_since(t);
    r.counters = metrics::global_snapshot();
    r.locks = metrics::lock_stats();
    for out in outs {
        let out = out.into_inner().expect("worker result slot");
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.req_sim.extend(out.req_sim);
        r.req_host.extend(out.req_host);
        r.peak_pages = r.peak_pages.max(out.peak_pages);
        r.thread_ns += out.loop_ns;
        r.problems.extend(out.problems);
        r.probes.extend(out.probe);
    }
    r.loop_sim = elapsed.iter().sum();
    let slowest = elapsed.iter().copied().max().unwrap_or(0);
    r.sim_rps = r.req_sim.len() as f64 / (slowest as f64 / CYCLES_PER_SEC);

    let new_violations = fpr_trace::smp::order_violations() - order_violations;
    if new_violations > 0 {
        r.problems
            .push(format!("{new_violations} lock-order violations"));
    }
    {
        let mut os = smp.cell(0).lock();
        let init = os.init;
        if let Err(e) = os
            .kernel
            .exit(front, 0)
            .and_then(|()| os.kernel.waitpid(init, Some(front)))
        {
            r.problems.push(format!("front-end teardown: {e}"));
        }
    }
    for c in 1..=WORKERS {
        if let Err(e) = smp.cell(c).lock().disable_spawn_fastpath() {
            r.problems.push(format!("cell {c} teardown: {e}"));
        }
    }
    for (c, base) in bases.iter().enumerate() {
        let os = smp.cell(c).lock();
        if !os.kernel.oom_kills.is_empty() {
            r.problems
                .push(format!("cell {c}: {} OOM kills", os.kernel.oom_kills.len()));
        }
        r.check_kernel(&format!("cell {c}"), &os.kernel, base);
    }
    r.problems.extend(smp.violations());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_per_worker_and_fork_one_in_eight() {
        let p = plans(21, 4_000);
        assert_eq!(p, plans(21, 4_000));
        assert_ne!(p, plans(22, 4_000));
        assert_ne!(p[0], p[1], "workers draw independent streams");
        let share = p[0].iter().filter(|&&(_, f)| f).count() as f64 / 4_000.0;
        assert!((share - 1.0 / FORK_ONE_IN as f64).abs() < 0.02, "{share}");
        let rate = 4_000.0 / (p[0].last().unwrap().0 as f64 / CYCLES_PER_SEC);
        assert!(
            (rate / OFFERED_PER_WORKER - 1.0).abs() < 0.05,
            "rate {rate}"
        );
    }

    #[test]
    fn tiny_round_is_clean_and_its_layers_sum() {
        let r = run(setup(5, Scale::Tiny), true);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.failed, 0);
        assert_eq!(r.req_sim.len(), WORKERS * 48);
        assert_eq!(r.probes.len(), WORKERS);
        assert!(r.probes.iter().all(|p| p.sum_mismatches == 0));
        assert!(r.sim_rps > 0.0);
        assert!(
            r.counters.counter("mem.frame_cache.hit") > 0,
            "magazines used"
        );
    }
}
