//! `serve`: E15's open loop, driven by the benchmark.
//!
//! One front end of 4096 pages (16 MiB) on a one-cell machine serves
//! Poisson arrivals at 75k req/s with E15's five-path mix; the server is
//! about 55% busy, so queueing amplifies any change in service time. (At
//! E15's 100k req/s the sojourn p99 of a 40000-request round varied 9%
//! from seed to seed, too much to gate a change on.) A maintenance tick every fourth request tops the warm pool up.
//! This is the only workload that loads exec, the warm pool and the image
//! cache under a request mix.

use crate::probe::{Probe, SimClock};
use crate::request::{self, draw_path, next_arrival, FastPath, Path, E15_MIX, POOL_TARGET};
use crate::round::{ns_since, Round, Scale, CYCLES_PER_SEC, SERVICE_BIN};
use forkroad_core::{Os, OsConfig};
use fpr_kernel::{KernelBaseline, MachineConfig, Pid};
use fpr_mem::OvercommitPolicy;
use fpr_rng::Rng;
use fpr_trace::{metrics, ProcessShape};
use std::time::Instant;

/// Offered arrival rate, requests per simulated second.
pub const OFFERED_RATE: f64 = 75_000.0;

/// Run the autoscale tick before every this many requests.
pub const AUTOSCALE_EVERY: usize = 4;

/// `(requests, front-end heap pages)` of a round.
fn size(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (40_000, 4_096),
        Scale::Tiny => (64, 256),
    }
}

/// The seeded request stream: `(arrival cycle, path)` per request. The
/// arrival and mix streams are independent forks of the seed, so
/// changing the mix leaves arrivals alone.
pub fn arrivals(seed: u64, requests: usize) -> Vec<(u64, Path)> {
    let mut root = Rng::seed_from_u64(seed);
    let mut gaps = root.fork_stream();
    let mut mix = root.fork_stream();
    let mut t = 0u64;
    (0..requests)
        .map(|_| {
            t = next_arrival(&mut gaps, t, OFFERED_RATE);
            (t, draw_path(&mut mix, &E15_MIX))
        })
        .collect()
}

/// A booted machine with the front end and a full warm pool, before the
/// first request.
pub struct World {
    os: Os,
    fast: FastPath,
    base: KernelBaseline,
    front: Pid,
    seed: u64,
    requests: usize,
}

/// Boots the machine, populates the front end and prefills the pool.
pub fn setup(seed: u64, scale: Scale) -> World {
    let (requests, heap_pages) = size(scale);
    let mut os = Os::boot(OsConfig {
        machine: MachineConfig {
            frames: heap_pages * 2 + 16_384,
            overcommit: OvercommitPolicy::Always,
            ..MachineConfig::default()
        },
        seed,
        ..OsConfig::default()
    });
    let fast = FastPath::enable(&mut os);
    let base = os.kernel.baseline();
    let front = os
        .make_parent(ProcessShape::with_heap(heap_pages))
        .expect("front end fits");
    os.pool_prefill(SERVICE_BIN, POOL_TARGET).expect("prefill");
    World {
        os,
        fast,
        base,
        front,
        seed,
        requests,
    }
}

/// Serves the seeded request stream, then tears the world down and
/// checks it.
pub fn run(world: World, traced: bool) -> Round {
    let World {
        mut os,
        fast,
        base,
        front,
        seed,
        requests,
    } = world;
    let arrivals = arrivals(seed, requests);
    let mut r = Round::default();
    let mut probe = Probe::new(SimClock::Kernel, traced);
    metrics::reset();
    let kills = os.kernel.oom_kills.len();
    let (mut clock, mut busy) = (0u64, 0u64);
    let t = Instant::now();
    for (i, &(arrival, path)) in arrivals.iter().enumerate() {
        clock = clock.max(arrival); // idle until the request lands
        r.attempted += 1;
        let s = probe.begin(i as u32, probe.sim_now(&os));
        let served = (|| {
            if i % AUTOSCALE_EVERY == 0 {
                fast.autoscale(&mut probe, &mut os)?;
            }
            request::serve(&mut os, &mut probe, front, path, Some(&fast))
        })();
        let done = probe.end(s, probe.sim_now(&os));
        clock += done.sim;
        busy += done.sim;
        match served {
            Ok(()) if os.kernel.oom_kills.len() == kills => {
                r.req_sim.push(clock - arrival);
                r.req_host.push(done.host_ns);
            }
            Ok(()) => r.failed += 1,
            Err(e) => {
                r.failed += 1;
                r.problems.push(format!("request {i}: {e}"));
            }
        }
        r.peak_pages = r.peak_pages.max(os.kernel.phys.used_frames());
    }
    r.loop_ns = ns_since(t);
    r.thread_ns = r.loop_ns;
    r.loop_sim = busy;
    r.counters = metrics::snapshot();
    // Capacity: completions per simulated second the server was busy.
    r.sim_rps = r.req_sim.len() as f64 / (busy as f64 / CYCLES_PER_SEC);
    r.probes.push(probe);

    if os.kernel.oom_kills.len() != kills {
        r.problems
            .push(format!("{} OOM kills", os.kernel.oom_kills.len() - kills));
    }
    let init = os.init;
    let retired = (|| {
        os.kernel.exit(front, 0)?;
        os.kernel.waitpid(init, Some(front))?;
        os.disable_spawn_fastpath()
    })();
    if let Err(e) = retired {
        r.problems.push(format!("teardown: {e}"));
    }
    r.check_kernel("serve", &os.kernel, &base);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_increasing_and_near_the_offered_rate() {
        let a = arrivals(11, 5_000);
        assert_eq!(a, arrivals(11, 5_000));
        assert_ne!(a, arrivals(12, 5_000));
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        let rate = a.len() as f64 / (a.last().unwrap().0 as f64 / CYCLES_PER_SEC);
        assert!((rate / OFFERED_RATE - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn tiny_round_serves_every_request_and_repeats_exactly() {
        let a = run(setup(3, Scale::Tiny), false);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(a.failed, 0);
        assert_eq!(a.req_sim.len(), 64);
        assert!(a.sim_rps > 0.0 && a.peak_pages > 0);
        let b = run(setup(3, Scale::Tiny), true);
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        assert!(a.same_simulation(&b), "tracing changed the simulation");
        assert_eq!(b.probes[0].sum_mismatches, 0);
        assert!(b.probes[0].spans().len() > 64 * 4);
    }
}
