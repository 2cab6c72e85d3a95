# Tier-1 and friends as one-word commands. `make check` = the full gate.

.PHONY: build test bench lint check experiments experiments-json perf clean

build:
	cargo build --release

test:
	cargo test -q

# The repository benchmark: end-to-end metrics of each workload (the
# workloads and metrics are declared in BENCHMARK.json).
bench:
	cargo run --release --manifest-path perfbench/Cargo.toml -- --workload vp_steady
	cargo run --release --manifest-path perfbench/Cargo.toml -- --workload mem_bound

# Clippy plus the in-tree analyzer (rule catalog in LINTS.md).
lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo run --release -p eole-lint -- --check

check: build test lint

# Regenerate every table/figure of the paper quickly.
experiments:
	cargo run --release -p eole-bench --bin experiments -- all --quick

# Same, as a machine-readable report set (schema in EXPERIMENTS.md).
experiments-json:
	cargo run --release -p eole-bench --bin experiments -- all --quick --format json --out results.json

# Steady-state simulator throughput on the quick suite, against the
# committed baseline (schema + methodology in PERF.md).
perf:
	cargo run --release -p eole-bench --bin sim-throughput -- --baseline BENCH_throughput.json --out BENCH_throughput.json

clean:
	cargo clean
