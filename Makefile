# Tier-1 verification and common chores. `make verify` is the gate a
# change must pass before it lands: release build, the full workspace
# test suite (including the exhaustive fail-point sweep and the
# baseline/leak-check proptests), clippy with warnings denied, the
# documentation gates (rustdoc warnings denied, doctests), and the
# benchmark's own tests.

CARGO ?= cargo

.PHONY: verify build test clippy doc doctest doclinks perfbench-test leakcheck stress bench-smoke bench-tables trace-demo clean

verify: build test clippy doc doctest doclinks perfbench-test stress bench-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test --workspace -q

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc must build clean: broken intra-doc links, missing docs on
# crates that deny them, and bad code fences all fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps -q

# Runnable documentation examples are tests too.
doctest:
	$(CARGO) test --workspace --doc -q

# Markdown is documentation too: every relative link in README/docs
# must resolve and the README <-> ARCHITECTURE <-> OBSERVABILITY <->
# BENCHMARKS cross-reference web must stay intact.
doclinks:
	$(CARGO) test -q -p forkroad --test doc_links

# perfbench is a workspace of its own that builds the simulator's crates
# through path dependencies, so an API change that breaks the benchmark
# surfaces here rather than first in a benchmark run.
perfbench-test:
	$(CARGO) test --release --offline -q --manifest-path perfbench/Cargo.toml

# The fault-injection acceptance gate on its own: every fail point of
# every creation API and of the swap tier (slot alloc, swap-out,
# swap-in) must produce a clean error — or, for a swap-in I/O failure,
# kill only the faulting process — and leave an intact kernel. The
# pressure proptests replay random swap/reclaim schedules under the
# same leak checks, and the SMP sweep (E17) repeats the exercise with
# injections landing concurrently on four real OS threads.
leakcheck:
	$(CARGO) test -q -p fpr-api --test faultsweep
	$(CARGO) test -q -p fpr-kernel --test proptest_faults
	$(CARGO) test -q -p fpr-mem --test proptest_faults
	$(CARGO) test -q -p forkroad-core --test pressure_property
	$(CARGO) test --release -q -p forkroad-core --test smp_faults

# The SMP gate on its own: four real OS threads hammer the shared
# machine with a seeded fork/vfork/spawn/exec storm, then every cell
# must pass check_invariants + leak_check and the shared frame pool
# must conserve; plus the determinism regression — the single-threaded
# E15 service figure must replay byte-identical to the checked-in
# seed results. smp_faults adds E17: the same storm under concurrent
# fault injection (all contained, zero lock-order violations) and a
# mid-storm cell fail-stop that must recover to a clean N-1 quiesce.
# Release mode: the storms are the slow part.
stress:
	$(CARGO) test --release -q -p forkroad-core --test smp_stress
	$(CARGO) test --release -q -p forkroad-core --test smp_faults

# Non-timing smoke: every fig*/tab* driver runs at reduced size into a
# scratch results dir, each emitted JSON must round-trip through the
# typed readers, and the per-API/mode cycle medians are snapshotted to
# BENCH_fork_modes.json at the repo root.
bench-smoke:
	FORKROAD_RESULTS=target/bench-smoke $(CARGO) run --release -q -p fpr-bench --bin bench_smoke

# Regenerate the paper tables/figures (quick sweeps).
bench-tables:
	$(CARGO) run --release -q -p fpr-bench --bin run_all -- --quick

# Record an on-demand fork + exec under the trace sink and export it as
# Chrome trace-event JSON (results/trace_demo.json) plus a text
# flamegraph on stdout. Load the JSON in about:tracing or Perfetto.
trace-demo:
	$(CARGO) run --release -q -p fpr-bench --bin trace_demo

clean:
	$(CARGO) clean
