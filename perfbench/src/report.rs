//! Turning rounds into named metrics, and the result line.
//!
//! End-to-end metrics come from untraced rounds; per-layer metrics from
//! traced ones, except the host diagnostics, which come from the untraced
//! rounds of a traced run. A simulated metric is the median over the
//! rounds (on `serve` and `snapshot` all rounds agree exactly).

use crate::probe::{layer_host_ns, layer_stats, Layer, LayerStats};
use crate::round::Round;
use crate::stats::{median, percentile, ratio};
use fpr_mem::CYCLES_PER_US;
use std::fmt::Write;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US as f64
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// The median over `rounds` of `f(round)`.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Every end-to-end metric over untraced `rounds`; `setups` are set-up
/// times in ns, of which the fastest is reported (host noise only adds
/// time), and `rss_mib` is the process's peak resident set.
///
/// Host throughput and latency are not among them: on a shared machine
/// host speed drifts between runs by more than any bound a gate could
/// use, so they are the per-layer `host.*` diagnostics.
pub fn end_to_end(rounds: &[Round], setups: &[u64], rss_mib: f64) -> Vec<Metric> {
    let sim_pct = |r: &Round, p| us(percentile(&sorted(&r.req_sim), p));
    vec![
        metric("req_p50_us", "us", per_round(rounds, |r| sim_pct(r, 50.0))),
        metric("req_p99_us", "us", per_round(rounds, |r| sim_pct(r, 99.0))),
        metric("sim_rps", "req/s", per_round(rounds, |r| r.sim_rps)),
        metric(
            "sim_peak_mib",
            "MiB",
            per_round(rounds, |r| r.peak_pages as f64 * 4.0 / 1024.0),
        ),
        metric(
            "setup_s",
            "s",
            setups.iter().min().map_or(0.0, |&ns| ns as f64 / 1e9),
        ),
        metric("host_peak_rss_mib", "MiB", rss_mib),
    ]
}

/// Host throughput and latency over untraced `rounds`: throughput is the
/// median over rounds of ops per host second of one worker thread, times
/// the threads, and latency percentiles cover every op of every round.
fn host(rounds: &[Round]) -> Vec<Metric> {
    let host = sorted(
        &rounds
            .iter()
            .flat_map(|r| r.req_host.iter().copied())
            .collect::<Vec<_>>(),
    );
    vec![
        metric(
            "host.rps",
            "req/s",
            per_round(rounds, |r| {
                r.probes.len() as f64 * ratio(r.attempted as f64 * 1e9, r.thread_ns as f64)
            }),
        ),
        metric(
            "host.req_p50_us",
            "us",
            percentile(&host, 50.0) as f64 / 1e3,
        ),
        metric(
            "host.req_p99_us",
            "us",
            percentile(&host, 99.0) as f64 / 1e3,
        ),
    ]
}

/// Counters read from `fpr_trace::metrics` over the timed loop, reported
/// under their own names.
const COUNTERS: [&str; 10] = [
    "mem.fork.pte_copy",
    "mem.fork.vma_clone",
    "mem.unshare.pt_node",
    "mem.fault.cow_copy",
    "mem.fault.demand_fill",
    "mem.frame_alloc",
    "mem.tlb.shootdown",
    "mem.tlb.entries_flushed",
    "mem.swap.out",
    "mem.swap.in",
];

/// Named `VLock`s whose waits are reported.
const LOCKS: [&str; 4] = ["mm", "pid", "buddy", "tlb"];

/// Every per-layer metric: layer calls and counters from `traced`
/// rounds, overhead against `untraced` ones.
pub fn per_layer(untraced: &[Round], traced: &[Round]) -> Vec<Metric> {
    let mut m = Vec::new();
    for layer in Layer::ALL {
        let name = layer.name();
        let stats: Vec<LayerStats> = traced
            .iter()
            .map(|r| layer_stats(r.probes.iter().flat_map(|p| p.spans()), layer))
            .collect();
        let med = |f: fn(&LayerStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        m.push(metric(
            format!("{name}.calls"),
            "count",
            med(|s| s.calls as f64),
        ));
        if layer != Layer::CellLock {
            // The cell lock's simulated part is the mm wait, reported as
            // lock.mm.wait_us.
            m.push(metric(format!("{name}.sim_us"), "us", med(|s| us(s.sim))));
        }
        m.push(metric(
            format!("{name}.host_ms"),
            "ms",
            med(|s| s.host_ns as f64 / 1e6),
        ));
        m.push(metric(
            format!("{name}.host_us_p50"),
            "us",
            med(|s| s.host_p50_ns as f64 / 1e3),
        ));
    }
    let count = |r: &Round, c: &str| r.counters.counter(c) as f64;
    for name in COUNTERS {
        m.push(metric(name, "count", per_round(traced, |r| count(r, name))));
    }
    m.push(metric(
        "mem.frame_cache.hit_ratio",
        "ratio",
        per_round(traced, |r| {
            ratio(count(r, "mem.frame_cache.hit"), count(r, "mem.frame_alloc"))
        }),
    ));
    m.push(metric(
        "kernel.swap.stall_us",
        "us",
        per_round(traced, |r| {
            r.counters
                .histogram("kernel.swap.stall_cycles")
                .map_or(0.0, |h| us(h.sum))
        }),
    ));
    m.push(metric(
        "kernel.reclaim.passes",
        "count",
        per_round(traced, |r| count(r, "kernel.reclaim.passes")),
    ));
    m.push(metric(
        "exec.image_cache.hit_ratio",
        "ratio",
        per_round(traced, |r| {
            let hit = count(r, "exec.image_cache.hit");
            ratio(hit, hit + count(r, "exec.image_cache.miss"))
        }),
    ));
    m.push(metric(
        "api.pool.hit_ratio",
        "ratio",
        per_round(traced, |r| {
            let hit = count(r, "api.pool.checkout");
            ratio(hit, hit + count(r, "api.pool.miss"))
        }),
    ));
    for lock in LOCKS {
        m.push(metric(
            format!("lock.{lock}.wait_us"),
            "us",
            per_round(traced, |r| {
                r.locks.get(lock).map_or(0.0, |s| us(s.wait_cycles))
            }),
        ));
    }
    m.push(metric(
        "lock.mm.contended",
        "count",
        per_round(traced, |r| {
            r.locks
                .get("mm")
                .map_or(0.0, |s| s.contended_acquires as f64)
        }),
    ));
    m.push(metric(
        "driver.host_ms",
        "ms",
        per_round(traced, |r| {
            let in_layers: u64 = r.probes.iter().map(|p| layer_host_ns(p.spans())).sum();
            r.thread_ns.saturating_sub(in_layers) as f64 / 1e6
        }),
    ));
    m.extend(host(untraced));
    m.push(metric(
        "host_ns_per_sim_cycle",
        "ns/cycle",
        per_round(untraced, |r| ratio(r.thread_ns as f64, r.loop_sim as f64)),
    ));
    m.push(metric(
        "trace_overhead",
        "ratio",
        ratio(
            per_round(traced, |r| r.loop_ns as f64),
            per_round(untraced, |r| r.loop_ns as f64),
        ) - 1.0,
    ));
    m.push(metric(
        "samples.req",
        "count",
        per_round(traced, |r| r.req_sim.len() as f64),
    ));
    m
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric by name with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; every metric is a ratio guarded
        // against empty windows, so a non-finite value is a bug.
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_json(
            true,
            10,
            0,
            &[metric("a", "ms", 1.25), metric("b_x", "s", 0.1 + 0.2)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b_x\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metrics_take_exact_order_statistics() {
        let round = |shift: u64| Round {
            req_sim: (1..=100).map(|v| v * 3_000 + shift).collect(),
            req_host: (1..=100).map(|v| v * 1_000).collect(),
            attempted: 100,
            thread_ns: 2_000_000_000 + shift,
            probes: vec![crate::probe::Probe::new(
                crate::probe::SimClock::Kernel,
                false,
            )],
            sim_rps: 7.0,
            peak_pages: 256,
            ..Round::default()
        };
        let rounds = [round(0), round(0), round(300)];
        let m = end_to_end(&rounds, &[700_000_000, 500_000_000, 600_000_000], 12.0);
        let get = |m: &[Metric], n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get(&m, "req_p50_us"), 50.0);
        assert_eq!(get(&m, "req_p99_us"), 99.0);
        assert_eq!(get(&m, "setup_s"), 0.5);
        assert_eq!(get(&m, "sim_peak_mib"), 1.0);
        let h = host(&rounds);
        assert_eq!(get(&h, "host.rps"), 50.0);
        assert_eq!(get(&h, "host.req_p50_us"), 50.0);
        assert_eq!(get(&h, "host.req_p99_us"), 99.0);
    }
}
