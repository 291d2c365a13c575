# Offline CI for the SIMBA workspace. No network: all dependencies are
# vendored path crates, so every target below runs from a cold checkout.
#
#   make ci     — everything a PR must pass
#   make build  — release build of the whole workspace
#   make test   — tier-1 tests (root package: facade + integration tests)
#   make test-all — every workspace member's tests (what `make ci` runs)
#   make bench-selftest — the E11 benchmark package's own tests (a
#                 separate workspace under benchmark/, so test-all does
#                 not reach it)
#   make e2e-quick — the E11 benchmark binary itself, every workload on
#                 its ~30 s sanity path: the command the PR driver runs
#                 (BENCHMARK.json), so a run that would end `run_failed`
#                 there fails here first
#   make doc    — rustdoc for all workspace crates (no deps)
#   make lint   — clippy, warnings as errors
#   make analyze — simba-analyze: telemetry registry + hygiene pass +
#                 cross-file concurrency/durability rules; fails on any
#                 unsuppressed finding and writes ANALYZE_REPORT.json
#                 (schema in crates/analyze/README.md)
#   make smoke  — the six correctness smokes (E3H host soak, E6 gateway,
#                 E7 store, E8 sharded host, E9 ledger, E10 rules) at
#                 their CI shape: `exp <id> --smoke` each; a violated
#                 invariant panics. Throughput is printed, never gated —
#                 `benchmark compare` (E11) is the performance gate
#   make alloc-budget — allocations and requested bytes per delivered
#                 alert on the admitted-alert path, against half of what
#                 PR 20's tree spent (crates/runtime/tests/alloc_budget.rs;
#                 its printed table is the artefact; `test-all` runs the
#                 same test without printing it)
#   make footprint — live heap bytes per idle resident buddy (2 000
#                 users on one shard) and per hibernated user (the heap
#                 left with 500 and with 2 000 users parked)
#                 (crates/runtime/tests/footprint.rs), and per rule-owning
#                 user with one rule and with four, at 500 and 2 000 users
#                 (crates/rules/tests/footprint.rs), and the live heap a
#                 ledgered host and its pool keep per drained alert over
#                 two drains of 2 000 and 8 000 alerts, against 8 B
#                 (crates/runtime/tests/retention.rs); their printed lines
#                 are the artefact; `test-all` runs the same tests without
#                 printing them
#   make wake-budget — voluntary context switches per alert of the thread
#                 that runs the gateway pump, and of the gateway worker
#                 threads together, over real TCP at 20 000/s, each
#                 against a budget of 0.25; and those of the pump's thread
#                 while a rules host sits idle for 500 ms, against 25
#                 (crates/gateway/tests/wake_budget.rs; `test-all` runs
#                 the same tests without printing them)
#   make commit-budget — shard-log and ledger commits per delivered alert
#                 with both logs on disk (one shard, the default 4-worker
#                 pool, 200 alerts one per ms on the paused clock), against
#                 0 shard-log commits and 1.05 in all
#                 (crates/runtime/tests/commit_budget.rs; deterministic, so
#                 `make ci` runs it here, printing its table)
#   make loc    — non-test Rust lines under crates/ (every
#                 crates/*/src/**/*.rs line before the file's first
#                 `#[cfg(test)]`), per crate and in total — the figure
#                 simplicity PRs quote in CHANGES.md

CARGO ?= cargo

.PHONY: ci build test test-all bench-selftest e2e-quick doc lint analyze smoke alloc-budget footprint wake-budget commit-budget loc clean

ci: build test-all bench-selftest e2e-quick doc lint analyze smoke commit-budget

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

test-all:
	$(CARGO) test --workspace -q

bench-selftest:
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml

e2e-quick:
	$(CARGO) run --release --offline --manifest-path benchmark/Cargo.toml -- all --quick

doc:
	$(CARGO) doc --no-deps

lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings
	# Informational second pass: surface every unwrap in the crates the
	# dependability argument leans on. simba-analyze is the hard gate
	# (it understands test code and suppressions); this just prints.
	$(CARGO) clippy -p simba-core -p simba-runtime -p simba-gateway -p simba-net -p simba-ledger --lib -- -W clippy::unwrap_used

analyze:
	$(CARGO) run -q -p simba-analyze -- check --report ANALYZE_REPORT.json

smoke:
	@for id in e3h e6 e7 e8 e9 e10; do \
		$(CARGO) run --release -q -p simba-bench --bin exp -- $$id --smoke || exit 1; \
	done

alloc-budget:
	$(CARGO) test --release -p simba-runtime --test alloc_budget -- --nocapture

footprint:
	$(CARGO) test --release -p simba-runtime --test footprint -- --nocapture
	$(CARGO) test --release -p simba-runtime --test retention -- --nocapture
	$(CARGO) test --release -p simba-rules --test footprint -- --nocapture

wake-budget:
	$(CARGO) test --release -p simba-gateway --test wake_budget -- --nocapture

commit-budget:
	$(CARGO) test --release -p simba-runtime --test commit_budget -- --nocapture

loc:
	@for crate in crates/*/; do \
		find $$crate/src -name '*.rs' -exec awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' {} + \
			| sed "s|^|$$(basename $$crate) |"; \
	done | awk '{ print; total += $$2 } END { print "total", total }'

clean:
	$(CARGO) clean
