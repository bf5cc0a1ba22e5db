//! Timing calls into the simulator's layers from outside.
//!
//! The benchmark calls each layer's public entry point directly and wraps
//! the call in [`Probe::call`], which reads two clocks around it: host
//! wall time ([`Instant`]) and simulated cycles. Nothing inside the
//! simulator changes. A traced probe keeps one [`Span`] per call, and one
//! per request as their parent, in memory; an untraced probe only times
//! whole requests, so end-to-end numbers carry no per-call overhead.

use forkroad_core::Os;
use fpr_trace::smp::{VLock, VLockGuard};
use fpr_trace::vclock;
use std::io::Write;
use std::time::Instant;

/// A timed entry point, named `<crate>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `fpr_api::fork_from_thread` with `ForkMode::Cow`.
    ForkCow,
    /// `fpr_api::fork_from_thread` with `ForkMode::OnDemand`.
    ForkOnDemand,
    /// `fpr_api::vfork`.
    Vfork,
    /// `fpr_api::spawn_fast`.
    SpawnFast,
    /// `fpr_api::ProcessBuilder::spawn`.
    Xproc,
    /// `fpr_api::WarmPool::autoscale`.
    PoolAutoscale,
    /// `fpr_exec::execve`.
    Execve,
    /// `Kernel::mmap_anon` then `Kernel::populate`.
    MmapPopulate,
    /// `Kernel::exit`.
    Exit,
    /// `Kernel::waitpid`.
    Waitpid,
    /// `Kernel::write_mem`.
    WriteMem,
    /// `Kernel::read_mem`.
    ReadMem,
    /// `SmpOs::cell(c).lock()`: the cell's `mm` lock.
    CellLock,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 13] = [
        Layer::ForkCow,
        Layer::ForkOnDemand,
        Layer::Vfork,
        Layer::SpawnFast,
        Layer::Xproc,
        Layer::PoolAutoscale,
        Layer::Execve,
        Layer::MmapPopulate,
        Layer::Exit,
        Layer::Waitpid,
        Layer::WriteMem,
        Layer::ReadMem,
        Layer::CellLock,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ForkCow => "api.fork_cow",
            Layer::ForkOnDemand => "api.fork_ondemand",
            Layer::Vfork => "api.vfork",
            Layer::SpawnFast => "api.spawn_fast",
            Layer::Xproc => "api.xproc",
            Layer::PoolAutoscale => "api.pool_autoscale",
            Layer::Execve => "exec.execve",
            Layer::MmapPopulate => "kernel.mmap_populate",
            Layer::Exit => "kernel.exit",
            Layer::Waitpid => "kernel.waitpid",
            Layer::WriteMem => "kernel.write_mem",
            Layer::ReadMem => "kernel.read_mem",
            Layer::CellLock => "core.cell_lock",
        }
    }
}

/// Which counter prices simulated work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimClock {
    /// `kernel.cycles.total()` of the cell being called: exact for one
    /// thread.
    Kernel,
    /// The calling thread's `fpr_trace::vclock`, which also advances by
    /// virtual lock waits: the clock of an SMP worker.
    Virtual,
}

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval. Kept to 32 bytes: a traced snapshot round holds
/// about three million of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called, or `None` for a request.
    pub layer: Option<Layer>,
    /// Index of the parent span in the same probe, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
    /// Host start, ns after the probe was made.
    pub start_ns: u64,
    /// Host duration, ns (saturating at about 4.3 s).
    pub dur_ns: u32,
    /// Simulated cycles between start and end.
    pub sim: u64,
}

impl Span {
    /// Host duration in ns.
    pub fn host_ns(&self) -> u64 {
        u64::from(self.dur_ns)
    }
}

fn dur(start: Instant, end: Instant) -> u32 {
    u32::try_from(end.duration_since(start).as_nanos()).unwrap_or(u32::MAX)
}

/// A request in flight, from [`Probe::begin`].
#[derive(Debug)]
pub struct Started {
    host: Instant,
    sim: u64,
}

/// What one request cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finished {
    /// Host wall time, ns.
    pub host_ns: u64,
    /// Simulated cycles.
    pub sim: u64,
}

/// Times requests, and when traced every layer call inside them.
#[derive(Debug)]
pub struct Probe {
    clock: SimClock,
    epoch: Instant,
    spans: Option<Vec<Span>>,
    /// The open request's span index and its children's summed cycles.
    open: Option<(u32, u64)>,
    /// Requests whose layer spans did not sum to the request's cycles.
    pub sum_mismatches: u64,
}

impl Probe {
    /// A probe reading `clock`; `traced` keeps spans.
    pub fn new(clock: SimClock, traced: bool) -> Probe {
        Probe {
            clock,
            epoch: Instant::now(),
            spans: traced.then(Vec::new),
            open: None,
            sum_mismatches: 0,
        }
    }

    /// True when spans are kept.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Simulated cycles now, as this probe's clock reads them. `os` is the
    /// cell being driven; the virtual clock ignores it.
    pub fn sim_now(&self, os: &Os) -> u64 {
        match self.clock {
            SimClock::Kernel => os.kernel.cycles.total(),
            SimClock::Virtual => vclock::now(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts request `request` at simulated time `sim`.
    pub fn begin(&mut self, request: u32, sim: u64) -> Started {
        let host = Instant::now();
        if let Some(spans) = self.spans.as_mut() {
            self.open = Some((spans.len() as u32, 0));
            spans.push(Span {
                layer: None,
                parent: ROOT,
                request,
                start_ns: 0,
                dur_ns: 0,
                sim: 0,
            });
        }
        Started { host, sim }
    }

    /// Ends the request `s` at simulated time `sim`. When traced, checks
    /// that its layer spans add up to exactly its simulated cycles: the
    /// benchmark charges nothing itself, so nothing may be left over.
    pub fn end(&mut self, s: Started, sim: u64) -> Finished {
        let end = Instant::now();
        let done = Finished {
            host_ns: end.duration_since(s.host).as_nanos() as u64,
            sim: sim - s.sim,
        };
        if let Some((span, children)) = self.open.take() {
            if children != done.sim {
                self.sum_mismatches += 1;
            }
            let start_ns = self.ns(s.host);
            let spans = self.spans.as_mut().expect("open request implies tracing");
            let r = &mut spans[span as usize];
            r.start_ns = start_ns;
            r.dur_ns = dur(s.host, end);
            r.sim = done.sim;
        }
        done
    }

    fn record(&mut self, layer: Layer, start: Instant, end: Instant, sim: u64) {
        let start_ns = self.ns(start);
        let (parent, request) = match self.open.as_mut() {
            Some((span, children)) => {
                *children += sim;
                let spans = self.spans.as_ref().expect("open request implies tracing");
                (*span, spans[*span as usize].request)
            }
            None => (ROOT, 0),
        };
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                layer: Some(layer),
                parent,
                request,
                start_ns,
                dur_ns: dur(start, end),
                sim,
            });
        }
    }

    /// Calls `f` on the cell `os`, timing it as `layer` when traced.
    pub fn call<T>(&mut self, layer: Layer, os: &mut Os, f: impl FnOnce(&mut Os) -> T) -> T {
        if !self.traced() {
            return f(os);
        }
        let sim0 = self.sim_now(os);
        let t0 = Instant::now();
        let out = f(os);
        let t1 = Instant::now();
        let sim = self.sim_now(os) - sim0;
        self.record(layer, t0, t1, sim);
        out
    }

    /// Takes a cell's `mm` lock and returns it with the virtual cycles
    /// spent waiting for it, timing the acquisition as
    /// [`Layer::CellLock`] when traced. Needs [`SimClock::Virtual`].
    pub fn lock<'a>(&mut self, cell: &'a VLock<Os>) -> (VLockGuard<'a, Os>, u64) {
        debug_assert_eq!(self.clock, SimClock::Virtual);
        let sim0 = vclock::now();
        let t0 = self.traced().then(Instant::now);
        let guard = cell.lock();
        let wait = vclock::now() - sim0;
        if let Some(t0) = t0 {
            self.record(Layer::CellLock, t0, Instant::now(), wait);
        }
        (guard, wait)
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStats {
    /// Calls.
    pub calls: u64,
    /// Simulated cycles, summed.
    pub sim: u64,
    /// Host self time, ns, summed. Layer spans have no children, so a
    /// layer span's self time is its duration.
    pub host_ns: u64,
    /// Median host time of one call, ns.
    pub host_p50_ns: u64,
}

/// Totals for `layer` over `spans`.
pub fn layer_stats<'a>(spans: impl Iterator<Item = &'a Span>, layer: Layer) -> LayerStats {
    let (mut durations, mut sim) = (Vec::new(), 0);
    for s in spans.filter(|s| s.layer == Some(layer)) {
        durations.push(s.host_ns());
        sim += s.sim;
    }
    durations.sort_unstable();
    LayerStats {
        calls: durations.len() as u64,
        sim,
        host_ns: durations.iter().sum(),
        host_p50_ns: crate::stats::percentile(&durations, 50.0),
    }
}

/// Host ns inside all layer spans.
pub fn layer_host_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.layer.is_some())
        .map(Span::host_ns)
        .sum()
}

/// Writes each thread's first whole requests, up to about `max_spans`
/// spans per thread, as a Chrome trace (`chrome://tracing`, Perfetto):
/// one `tid` per thread, `args` carrying the request id, the parent
/// span's index and the simulated cycles.
pub fn write_chrome_trace(
    out: &mut impl Write,
    threads: &[&[Span]],
    max_spans: usize,
) -> std::io::Result<()> {
    writeln!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if s.layer.is_none() && i >= max_spans {
                break;
            }
            let name = s.layer.map_or("request", Layer::name);
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{},\"sim_cycles\":{}}}}}",
                s.start_ns as f64 / 1e3,
                s.host_ns() as f64 / 1e3,
                s.request,
                s.sim,
            )?;
        }
    }
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkroad_core::OsConfig;
    use fpr_api::fork;

    #[test]
    fn span_stays_small() {
        assert_eq!(std::mem::size_of::<Span>(), 32);
    }

    #[test]
    fn untraced_probe_keeps_no_spans_but_times_requests() {
        let mut os = Os::boot(OsConfig::default());
        let mut p = Probe::new(SimClock::Kernel, false);
        let init = os.init;
        let s = p.begin(0, p.sim_now(&os));
        let child = p.call(Layer::ForkCow, &mut os, |os| {
            fork(&mut os.kernel, init).unwrap()
        });
        p.call(Layer::Exit, &mut os, |os| os.kernel.exit(child, 0).unwrap());
        let done = p.end(s, p.sim_now(&os));
        assert!(done.sim > 0);
        assert!(p.spans().is_empty());
        assert_eq!(p.sum_mismatches, 0);
    }

    #[test]
    fn traced_layers_sum_to_the_request_and_leftovers_are_caught() {
        let mut os = Os::boot(OsConfig::default());
        let mut p = Probe::new(SimClock::Kernel, true);
        let init = os.init;
        let s = p.begin(3, p.sim_now(&os));
        let child = p.call(Layer::ForkCow, &mut os, |os| {
            fork(&mut os.kernel, init).unwrap()
        });
        p.call(Layer::Exit, &mut os, |os| os.kernel.exit(child, 0).unwrap());
        p.call(Layer::Waitpid, &mut os, |os| {
            os.kernel.waitpid(init, Some(child)).unwrap()
        });
        let done = p.end(s, p.sim_now(&os));
        assert_eq!(p.sum_mismatches, 0);
        let spans = p.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].layer, None);
        assert_eq!(spans[0].sim, done.sim);
        assert!(spans[1..].iter().all(|s| s.parent == 0 && s.request == 3));
        let fork = layer_stats(spans.iter(), Layer::ForkCow);
        assert_eq!(fork.calls, 1);
        assert!(fork.sim > 0);

        // Work charged outside any layer call is a leftover.
        let s = p.begin(4, p.sim_now(&os));
        os.kernel.charge_syscall();
        p.end(s, p.sim_now(&os));
        assert_eq!(p.sum_mismatches, 1);
    }

    #[test]
    fn chrome_trace_keeps_only_whole_first_requests() {
        let span = |request, layer| Span {
            layer,
            parent: ROOT,
            request,
            start_ns: 1_000,
            dur_ns: 2_500,
            sim: 9,
        };
        let spans = [
            span(0, None),
            span(0, Some(Layer::Exit)),
            span(1, None),
            span(1, Some(Layer::Exit)),
        ];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[&spans], 1).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"kernel.exit\""));
        assert!(text.contains("\"dur\":2.500"));
    }
}
