//! `perfbench --workload <serve|snapshot|smp> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats rounds of the workload from the same seed until `--seconds`
//! have passed, checks every round, and prints one JSON result line last
//! on stdout: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics. A traced run alternates untraced and traced rounds, so the
//! difference between them is the tracing overhead, and writes the first
//! requests' spans to `traces/` in the build output directory.
//!
//! `perfbench --workload <w> --seed <n> --setups <k>` times `k` set-ups
//! in this process, after one untimed one, and prints their host ns on
//! one line. A run starts such a process before each round for `setup_s`.

use perfbench::probe::write_chrome_trace;
use perfbench::report::{end_to_end, per_layer, result_json};
use perfbench::round::{Round, Scale};
use perfbench::Workload;
use std::io::BufWriter;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Spans per thread written to the trace file (whole requests); every
/// span of the run stays in memory for the per-layer metrics.
const TRACE_FILE_SPANS: usize = 16_384;

/// Set-ups each set-up process times.
const SETUPS_PER_PROCESS: usize = 8;

/// Longest run `--seconds` may ask for, leaving room for the last round
/// within the three-minute limit on one run.
const MAX_SECONDS: u64 = 120;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set-ups to time instead of a run.
    setups: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setups = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--setups" => setups = Some(value.parse::<usize>().map_err(|_| bad.clone())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if setups.is_some() {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            setups,
        });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be 1..={MAX_SECONDS}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setups,
    })
}

/// Times set-ups in a fresh process of this program. Each starts from the
/// same cold heap, so a sample does not depend on the rounds run before
/// it: in one process, set-up after a round reuses the round's freed
/// memory and ran up to twice as fast. The fresh process's first set-up
/// also pays its one-time costs, so it is left untimed.
fn setups_in_fresh_process(args: &Args) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--setups", &SETUPS_PER_PROCESS.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| format!("set-up process printed {t:?}"))
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Writes `round`'s spans under the build output directory: the
/// `CARGO_TARGET_DIR` the benchmark was built with, else the package's
/// own `target`.
fn write_trace(args: &Args, round: &Round) -> std::io::Result<String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    let dir = std::path::Path::new(&target).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    let threads: Vec<_> = round.probes.iter().map(|p| p.spans()).collect();
    write_chrome_trace(&mut out, &threads, TRACE_FILE_SPANS)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve|snapshot|smp> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("       perfbench --workload <serve|snapshot|smp> --seed <n> --setups <k>");
            return ExitCode::from(2);
        }
    };

    if let Some(k) = args.setups {
        args.workload.setup_ns(args.seed, Scale::Full);
        let ns: Vec<String> = (0..k)
            .map(|_| args.workload.setup_ns(args.seed, Scale::Full).to_string())
            .collect();
        println!("{}", ns.join(" "));
        return ExitCode::SUCCESS;
    }

    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut rss_mib = None;
    loop {
        match setups_in_fresh_process(&args) {
            Ok(ns) => setups.extend(ns),
            Err(e) => problems.push(e),
        }
        let trace_round = args.trace && untraced.len() > traced.len();
        let round = args.workload.round(args.seed, Scale::Full, trace_round);
        if trace_round {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        // The footprint of set-up and one untraced round: later rounds
        // reuse a fragmented heap, so the high-water mark would creep with
        // the number of rounds that fit in the run.
        rss_mib.get_or_insert_with(peak_rss_mib);
        if start.elapsed() >= deadline && (!args.trace || !traced.is_empty()) {
            break;
        }
    }

    let rounds = || untraced.iter().chain(&traced);
    problems.extend(rounds().flat_map(|r| r.problems.iter().cloned()));
    let mismatches: u64 = traced
        .iter()
        .flat_map(|r| &r.probes)
        .map(|p| p.sum_mismatches)
        .sum();
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} requests whose layer cycles do not sum to the request's"
        ));
    }
    if args.workload.deterministic() {
        let first = &untraced[0];
        let diverged = rounds().filter(|r| !first.same_simulation(r)).count();
        if diverged > 0 {
            problems.push(format!(
                "{diverged} rounds diverged from the first round's simulation"
            ));
        }
    }
    let attempted: u64 = rounds().map(|r| r.attempted).sum();
    let failed: u64 = rounds().map(|r| r.failed).sum();

    let metrics = if args.trace {
        match traced.last().map(|r| write_trace(&args, r)) {
            Some(Ok(path)) => eprintln!("perfbench: spans written to {path}"),
            Some(Err(e)) => problems.push(format!("writing spans: {e}")),
            None => unreachable!("a traced run has a traced round"),
        }
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced, &setups, rss_mib.expect("one round ran"))
    };

    eprintln!(
        "perfbench: {} seed {}: {} untraced + {} traced rounds, {} samples per round, {:.1} s",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        untraced[0].req_sim.len(),
        start.elapsed().as_secs_f64()
    );
    for m in &metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in problems.iter().take(20) {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    println!(
        "{}",
        result_json(problems.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
