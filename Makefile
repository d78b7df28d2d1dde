.PHONY: build test lint bench-json check telemetry chaos scale trace regress store serve

build:
	cargo build --release

# Tier-1 gate: build + full workspace test suite + repo lint.
test: lint
	cargo build --release
	cargo test -q --release --workspace

# The repo lint: eight source rules, in tests/repo_lint.rs.
lint:
	cargo test -q --release --test repo_lint

# Bench trajectory: every bench target writes BENCH_<name>.json at the
# repo root as a run manifest (seed, config fingerprint, metrics) so
# `ddoscovery runs diff` can compare any two of them across commits.
bench-json:
	cargo bench -p ddoscovery-bench

# Perf regression gate: diff each fresh BENCH file against the stored
# baseline under .ddoscovery/bench/ with a generous wall-clock gate,
# then refresh the baselines. First run just seeds the baselines.
regress:
	@mkdir -p .ddoscovery/bench
	@for b in pipeline sweep population detectors; do \
		if [ -f .ddoscovery/bench/BENCH_$$b.json ]; then \
			cargo run --release -p ddoscovery --bin ddoscovery -- \
				runs diff .ddoscovery/bench/BENCH_$$b.json BENCH_$$b.json \
				--gate 50 || exit 1; \
		else \
			echo "regress: no baseline for $$b, seeding"; \
		fi; \
		cp BENCH_$$b.json .ddoscovery/bench/BENCH_$$b.json; \
	done

# Everything `test` gates on, plus a warning-free rustdoc build (so a
# doc link to a deleted or private item fails here), plus a
# compile-only smoke of every bench target so bench drift cannot rot
# outside the tier-1 path, plus the benchmark of record's own tests, so
# a public-API change that breaks `perfbench/` fails here rather than in
# the benchmark run, plus the cross-process warm-store smoke, which pins
# the stage counters.
check: test
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
	cargo bench --workspace --no-run
	cargo test --release --offline --manifest-path perfbench/Cargo.toml
	$(MAKE) store

# 10M-attack scale path (DESIGN.md §9): per-stage peak-RSS probes in
# separate processes (VmHWM is monotone, so stages must not share one),
# the population throughput bench (BENCH_population.json), and the
# ignored 10M release smoke test.
scale:
	DDOS_SCALE_TARGET=10000000 DDOS_SCALE_STAGE=generate \
		cargo run --release -p ddoscovery-bench --example scale_probe
	DDOS_SCALE_TARGET=10000000 \
		cargo run --release -p ddoscovery-bench --example scale_probe
	cargo bench -p ddoscovery-bench --bench population
	cargo test -q --release --test scale_smoke -- --ignored

# Cross-process warm smoke (DESIGN.md §11): two sequential CLI runs
# share a stage store — the second process must serve every stage from
# the disk tier (zero recomputation) and print byte-identical stdout —
# then `store list` inspects the cells and `store gc --max-bytes 0`
# empties them.
store:
	@rm -rf /tmp/ddoscovery-store-smoke && mkdir -p /tmp/ddoscovery-store-smoke
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --workers 2 --store /tmp/ddoscovery-store-smoke/cells \
		> /tmp/ddoscovery-store-smoke/cold.txt
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --workers 2 --store /tmp/ddoscovery-store-smoke/cells \
		--telemetry /tmp/ddoscovery-store-smoke/warm.json \
		> /tmp/ddoscovery-store-smoke/warm.txt
	cmp /tmp/ddoscovery-store-smoke/cold.txt /tmp/ddoscovery-store-smoke/warm.txt
	@grep -q '"stage.plan.disk_hit": 1' /tmp/ddoscovery-store-smoke/warm.json || \
		{ echo "store: warm run did not hit the plan cell" >&2; exit 1; }
	@grep -q '"stage.attacks.disk_hit": 1' /tmp/ddoscovery-store-smoke/warm.json || \
		{ echo "store: warm run did not hit the attacks cell" >&2; exit 1; }
	@grep -q '"stage.observations.disk_hit": 12' /tmp/ddoscovery-store-smoke/warm.json || \
		{ echo "store: warm run did not hit all observation cells" >&2; exit 1; }
	@grep -q '"stage.plan.computed": 0' /tmp/ddoscovery-store-smoke/warm.json || \
		{ echo "store: warm run recomputed the plan" >&2; exit 1; }
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		store list --store /tmp/ddoscovery-store-smoke/cells
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		store gc --max-bytes 0 --store /tmp/ddoscovery-store-smoke/cells
	@rm -rf /tmp/ddoscovery-store-smoke
	@echo "store: ok (cross-process warm hits, byte-identical stdout, gc)"

# Query-service smoke (DESIGN.md §12): the end-to-end suite boots real
# `ddoscovery serve` children, proves served bytes identical to CLI
# stdout, sheds a burst past a parked pool, survives chaos-injected
# handler panics, and drains cleanly inside the deadline.
serve:
	cargo test -q --release -p ddoscovery --test http_service
	cargo test -q --release -p ddoscovery-serve
	@echo "serve: ok (byte-identical payloads, shedding, chaos 500s, drain)"

# Fault-injection suite under several pool widths: the chaos tests
# assert byte-identical output across worker counts internally, and
# re-running the whole binary with different DDOSCOVERY_WORKERS
# defaults exercises the global-pool path the in-test pools bypass.
chaos:
	DDOSCOVERY_WORKERS=1 cargo test -q --release --test chaos
	DDOSCOVERY_WORKERS=4 cargo test -q --release --test chaos
	DDOSCOVERY_WORKERS=8 cargo test -q --release --test chaos

# Quick-scale instrumented run: emits telemetry.json (run manifest with
# per-stage latency histograms, per-observatory counts, and pool
# utilization) plus a human-readable summary table on stderr.
telemetry:
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --telemetry telemetry.json
	@cat telemetry.json

# Flight-recorder smoke: a quick traced run writes trace.json (Chrome
# trace-event JSON, loadable in Perfetto / chrome://tracing), then
# trace_check validates it — parses, every span closes, and the pool
# fan-out produced at least two distinct worker lanes. Workers are
# pinned so the lane check holds even on single-core machines.
trace:
	cargo run --release -p ddoscovery --bin ddoscovery -- \
		trends --quick --workers 4 --trace trace.json
	cargo run --release --example trace_check -- trace.json
