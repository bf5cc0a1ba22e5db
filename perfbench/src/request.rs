//! One served request: create a child by one of five paths, let it touch
//! its working set, exit, and reap it — every step a direct call into a
//! layer, timed by the [`Probe`].
//!
//! This is the body of E15's serving loop (`forkroad_core::experiments::
//! service`), unrolled so that fork and exec, or vfork and exec, are timed
//! as separate layers.

use crate::probe::{Layer, Probe};
use crate::round::{CYCLES_PER_SEC, SERVICE_BIN};
use forkroad_core::Os;
use fpr_api::{fork_from_thread, spawn_fast, vfork, ProcessBuilder, SpawnAttrs, WarmPool};
use fpr_exec::{execve, ImageCache};
use fpr_kernel::Pid;
use fpr_mem::{ForkMode, Prot, Share};
use fpr_rng::Rng;
use std::sync::{Arc, Mutex};

/// Pages each request's child maps and fills as its work.
pub const WORK_PAGES: u64 = 4;

/// Warm-pool size the autoscale tick keeps.
pub const POOL_TARGET: usize = 4;

/// How a request's child is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `posix_spawn` through the warm pool and image cache.
    SpawnFast,
    /// `fork(OnDemand)` then exec.
    ForkOnDemand,
    /// `fork(Cow)` then exec.
    ForkCow,
    /// `vfork` then exec.
    VforkExec,
    /// The cross-process builder.
    Xproc,
}

/// E15's path mix: `(path, weight)`.
pub const E15_MIX: [(Path, u64); 5] = [
    (Path::SpawnFast, 6),
    (Path::ForkOnDemand, 4),
    (Path::VforkExec, 3),
    (Path::Xproc, 2),
    (Path::ForkCow, 2),
];

/// The next arrival after simulated cycle `t` of a Poisson stream of
/// `rate` requests per simulated second.
pub fn next_arrival(rng: &mut Rng, t: u64, rate: f64) -> u64 {
    // gen_f64 is in [0, 1), so ln never sees zero.
    t + (-(1.0 - rng.gen_f64()).ln() * CYCLES_PER_SEC / rate) as u64 + 1
}

/// Draws a path from a weighted mix.
pub fn draw_path(rng: &mut Rng, mix: &[(Path, u64)]) -> Path {
    let total: u64 = mix.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_below(total);
    for &(path, w) in mix {
        if roll < w {
            return path;
        }
        roll -= w;
    }
    unreachable!("weights sum to total")
}

/// A cell's spawn fast path: the image cache and warm pool that
/// [`Os::enable_spawn_fastpath`] installed.
#[derive(Debug, Clone)]
pub struct FastPath {
    cache: Arc<Mutex<ImageCache>>,
    pool: Arc<Mutex<WarmPool>>,
}

impl FastPath {
    /// Enables the fast path on `os` and returns handles to it.
    pub fn enable(os: &mut Os) -> FastPath {
        os.enable_spawn_fastpath()
            .expect("fast path enables on a fresh cell");
        let f = os.fastpath().expect("just enabled");
        FastPath {
            cache: Arc::clone(&f.cache),
            pool: Arc::clone(&f.pool),
        }
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, ImageCache> {
        self.cache.lock().expect("image cache lock poisoned")
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, WarmPool> {
        self.pool.lock().expect("warm pool lock poisoned")
    }

    /// The maintenance tick: tops the warm pool up to [`POOL_TARGET`]
    /// unless memory pressure forbids it.
    pub fn autoscale(&self, probe: &mut Probe, os: &mut Os) -> Result<(), String> {
        probe
            .call(Layer::PoolAutoscale, os, |os| {
                self.pool().autoscale(
                    &mut os.kernel,
                    &os.images,
                    &mut self.cache(),
                    SERVICE_BIN,
                    POOL_TARGET,
                )
            })
            .map(drop)
            .map_err(|e| format!("autoscale: {e}"))
    }
}

/// Serves one request from `parent` by `path`. `fast` is required for
/// [`Path::SpawnFast`].
pub fn serve(
    os: &mut Os,
    probe: &mut Probe,
    parent: Pid,
    path: Path,
    fast: Option<&FastPath>,
) -> Result<(), String> {
    let err = |what: &str| {
        let what = what.to_owned();
        move |e: fpr_kernel::Errno| format!("{path:?} {what}: {e}")
    };
    let seed = os.fresh_seed();
    let child = match path {
        Path::SpawnFast => {
            let fast = fast.expect("spawn fast path enabled on this cell");
            probe
                .call(Layer::SpawnFast, os, |os| {
                    spawn_fast(
                        &mut os.kernel,
                        parent,
                        &os.images,
                        SERVICE_BIN,
                        &[],
                        &SpawnAttrs::default(),
                        os.aslr,
                        seed,
                        &mut fast.cache(),
                        &mut fast.pool(),
                    )
                })
                .map_err(err("spawn"))?
        }
        Path::ForkOnDemand | Path::ForkCow => {
            let (layer, mode) = if path == Path::ForkCow {
                (Layer::ForkCow, ForkMode::Cow)
            } else {
                (Layer::ForkOnDemand, ForkMode::OnDemand)
            };
            let tid = os.kernel.process(parent).map_err(err("parent"))?.main_tid();
            let (child, _) = probe
                .call(layer, os, |os| {
                    fork_from_thread(&mut os.kernel, parent, tid, mode)
                })
                .map_err(err("fork"))?;
            exec(os, probe, child, seed).map_err(err("exec"))?;
            child
        }
        Path::VforkExec => {
            let child = probe
                .call(Layer::Vfork, os, |os| vfork(&mut os.kernel, parent))
                .map_err(err("vfork"))?;
            exec(os, probe, child, seed).map_err(err("exec"))?;
            child
        }
        Path::Xproc => {
            probe
                .call(Layer::Xproc, os, |os| {
                    ProcessBuilder::new(SERVICE_BIN).aslr(os.aslr, seed).spawn(
                        &mut os.kernel,
                        parent,
                        &os.images,
                    )
                })
                .map_err(err("xproc"))?
                .pid
        }
    };
    probe
        .call(Layer::MmapPopulate, os, |os| {
            let base = os
                .kernel
                .mmap_anon(child, WORK_PAGES, Prot::RW, Share::Private)?;
            os.kernel.populate(child, base, WORK_PAGES)
        })
        .map_err(err("working set"))?;
    reap(os, probe, parent, child).map_err(|e| format!("{path:?} {e}"))
}

fn exec(os: &mut Os, probe: &mut Probe, child: Pid, seed: u64) -> fpr_kernel::KResult<()> {
    probe.call(Layer::Execve, os, |os| {
        execve(
            &mut os.kernel,
            child,
            &os.images,
            SERVICE_BIN,
            os.aslr,
            seed,
        )
    })
}

/// Exits `child` with status 0 and reaps it from `parent`, checking that
/// the reaped status is 0.
pub fn reap(os: &mut Os, probe: &mut Probe, parent: Pid, child: Pid) -> Result<(), String> {
    probe
        .call(Layer::Exit, os, |os| os.kernel.exit(child, 0))
        .map_err(|e| format!("exit: {e}"))?;
    match probe.call(Layer::Waitpid, os, |os| {
        os.kernel.waitpid(parent, Some(child))
    }) {
        Ok(Some((pid, 0))) if pid == child => Ok(()),
        other => Err(format!("waitpid for {child:?}: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_draw_is_seeded_and_covers_every_path() {
        let draws = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..2_000)
                .map(|_| draw_path(&mut rng, &E15_MIX))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        let d = draws(5);
        for (path, w) in E15_MIX {
            let share = d.iter().filter(|&&p| p == path).count() as f64 / d.len() as f64;
            assert!(
                (share - w as f64 / 17.0).abs() < 0.03,
                "{path:?} drawn {share:.3}"
            );
        }
    }
}
