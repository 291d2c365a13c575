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
#                 (schema in crates/analyze/README.md) next to the
#                 BENCH_e*.json artifacts
#   make tsan   — sharded-host + ledger crash-matrix tests under
#                 ThreadSanitizer when a nightly toolchain is installed;
#                 prints a notice and succeeds otherwise
#   make soak   — short deterministic multi-user host soak (E3H)
#   make gateway-smoke — E6 gateway smoke: 1k alerts over localhost TCP
#                 with injected drops; asserts zero accepted-then-lost
#   make store-smoke — E7 soft-state store smoke: concurrent TTL'd
#                 writes/reads/subscriptions; asserts zero expired-fact reads
#   make host-smoke — E8 sharded-host smoke: 2k active of 20k registered
#                 users through hibernation + group-commit shard logs;
#                 on machines with >= 2 CPUs it also runs the thread-per-
#                 shard multi-core comparison (multiplier asserted >= 2x
#                 only when >= 4 cores are available)
#   make ledger-smoke — E9 durable delivery ledger smoke: 4 workers x
#                 20k deliveries with injected worker kills and forced
#                 lease expiries; asserts zero lost, zero double-effect
#   make rules-smoke — E10 rules smoke: single-thread rule-evaluation
#                 floor plus the 10k-alarm storm collapsed into exactly
#                 one digest delivery with critical cut-through
#   make loc    — non-test Rust lines under crates/ (every
#                 crates/*/src/**/*.rs line before the file's first
#                 `#[cfg(test)]`), per crate and in total — the figure
#                 simplicity PRs quote in CHANGES.md
#   make trajectory — merge the BENCH_e*.json artifacts into
#                 BENCH_TRAJECTORY.json (schema in EXPERIMENTS.md) and
#                 fail if any merged artifact recorded a failed floor
#
# The six smoke targets each write a machine-readable BENCH_e*.json
# artifact (schema in EXPERIMENTS.md) and exit non-zero below their
# throughput floors; `make trajectory` then merges them, so `make ci`
# both produces the bench trajectory and fails on a regression.

CARGO ?= cargo

.PHONY: ci build test test-all bench-selftest e2e-quick doc lint analyze tsan soak gateway-smoke store-smoke host-smoke ledger-smoke rules-smoke trajectory loc clean

ci: build test-all bench-selftest e2e-quick doc lint analyze soak gateway-smoke store-smoke host-smoke ledger-smoke rules-smoke trajectory

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

# ThreadSanitizer pass over the code paths with real cross-thread
# sharing: the thread-per-shard host and the ledger crash matrix.
# -Z sanitizer=thread needs a nightly toolchain and std rebuilt with
# sanitizer instrumentation (-Z build-std); when rustup has no nightly
# (the offline CI image ships stable only) this prints a notice and
# succeeds, so `make tsan` is safe to run anywhere.
tsan:
	@if ! rustup run nightly rustc --version >/dev/null 2>&1; then \
		echo "tsan: no nightly toolchain installed — skipping (rustup toolchain install nightly, then re-run \`make tsan\`)"; \
	elif [ ! -f "$$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]; then \
		echo "tsan: nightly lacks rust-src (needed for -Z build-std) — skipping (rustup component add rust-src --toolchain nightly)"; \
	else \
		echo "tsan: running sharded_threads + ledger crash matrix under ThreadSanitizer"; \
		RUSTFLAGS="-Z sanitizer=thread" \
		rustup run nightly $(CARGO) test -Z build-std --target x86_64-unknown-linux-gnu \
			-p simba-runtime --test sharded_threads -- --test-threads=1 && \
		RUSTFLAGS="-Z sanitizer=thread" \
		rustup run nightly $(CARGO) test -Z build-std --target x86_64-unknown-linux-gnu \
			-p simba-ledger --test crash_matrix -- --test-threads=1; \
	fi

soak:
	$(CARGO) run --release -q -p simba-bench --bin exp_e3_host_soak -- --smoke --seed 42

gateway-smoke:
	$(CARGO) run --release -q -p simba-bench --bin exp_e6_gateway -- --smoke

store-smoke:
	$(CARGO) run --release -q -p simba-bench --bin exp_e7_store -- --smoke

host-smoke:
	$(CARGO) run --release -q -p simba-bench --bin exp_e8_sharded -- --smoke
	@cores=$$(nproc 2>/dev/null || echo 1); \
	if [ "$$cores" -ge 2 ]; then \
		threads=$$cores; [ "$$threads" -gt 8 ] && threads=8; \
		echo "host-smoke: $$cores cores, running multi-core E8 with $$threads shard threads"; \
		$(CARGO) run --release -q -p simba-bench --bin exp_e8_sharded -- --smoke --threads $$threads; \
	else \
		echo "host-smoke: single core, skipping the multi-core E8 comparison"; \
	fi

ledger-smoke:
	$(CARGO) run --release -q -p simba-bench --bin exp_e9_ledger -- --smoke

rules-smoke:
	$(CARGO) run --release -q -p simba-bench --bin exp_e10_rules -- --smoke

trajectory:
	$(CARGO) run --release -q -p simba-bench --bin bench_trajectory

loc:
	@for crate in crates/*/; do \
		find $$crate/src -name '*.rs' -exec awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' {} + \
			| sed "s|^|$$(basename $$crate) |"; \
	done | awk '{ print; total += $$2 } END { print "total", total }'

clean:
	$(CARGO) clean
