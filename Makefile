GO ?= go
FUZZTIME ?= 10s

# Fuzz targets as package:Target.
FUZZ_TARGETS := ./internal/trace:FuzzDecodePathLog \
	./internal/trace:FuzzDecodePathLogSalvage \
	./internal/trace:FuzzDecodeAccessVectorLog \
	./internal/trace:FuzzDecodeSyncOrderLog \
	./internal/clapd:FuzzDecodeBundle \
	./internal/ir:FuzzCompileSource

.PHONY: ci lint vet fmt-check build test e2ebench-check e2ebench-smoke \
	fuzz-smoke bench-gate vet-examples races-examples race-obs \
	metrics-smoke timeline-smoke serve-smoke

ci: lint build test e2ebench-check e2ebench-smoke vet-examples races-examples fuzz-smoke race-obs metrics-smoke timeline-smoke serve-smoke bench-gate

lint: vet fmt-check

vet:
	$(GO) vet ./...

# gofmt prints the files it would rewrite; any output is a failure.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Run the static lockset/happens-before lint over the checked-in example
# programs. Findings are expected (some examples are intentionally racy);
# the golden tests in internal/bench pin the exact reports, so this
# target only guards that the linter runs every example without error.
vet-examples:
	$(GO) run ./cmd/clap vet examples/vet/*.mc

# Run the predictive race analysis over the examples/races corpus — one
# program per verdict class (confirmed, solver-refuted, race-free,
# symbolic-index). The exact reports are pinned by the golden tests in
# internal/bench; this target guards the end-to-end CLI path.
races-examples:
	@for f in examples/races/*.mc; do \
		echo "clap races $$f"; \
		$(GO) run ./cmd/clap races $$f >/dev/null || exit 1; \
	done

build:
	$(GO) build ./...

# The race detector slows the solver-heavy suites by an order of
# magnitude; go test's default 10m per-package timeout is not enough for
# internal/bench on small machines.
test:
	$(GO) test -race -timeout 40m ./...

# The end-to-end benchmark is a nested module (e2ebench/go.mod), so the
# root's ./... never compiles it; vet and test it on its own so a change
# to an API it calls fails here rather than when the benchmark runs.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Product-path smoke: a one-second e2ebench run of each workload puts
# every recording of the eleven programs through DecodeBundle → Rehydrate
# → Reproduce. e2ebench exits 0 on an incorrect run, so the target checks
# the result line itself.
e2ebench-smoke:
	@for w in repro-datarace repro-hard; do \
		out=$$(bash e2ebench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
			{ echo "e2ebench-smoke: $$w incorrect:"; echo "$$out" | tail -n 2; exit 1; }; \
		echo "e2ebench-smoke: $$w ok"; \
	done

# CI smoke gate for the lazy-transitivity CNF core: solve four of the
# historically slowest benchmarks (symbolic-address racey among them) once
# and require the clause count to stay an order of magnitude below the
# n(n-1)(n-2) clauses an all-triples transitivity encoding would emit.
bench-gate:
	$(GO) test ./internal/bench/ -run '^TestBenchGateLazyCNF$$' -count=1 -v

# A short fuzz pass per decoder target: the crash-tolerance claims hold on
# arbitrary bytes, not just the corpus.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg ($(FUZZTIME))"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Focused race-detector pass over the observability and parallel-solver
# packages: both synchronize across goroutines (heartbeat vs. registry,
# progress hooks vs. workers), so they get a dedicated -race run even when
# the full `test` target is skipped.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/parsolve/...

# End-to-end metrics smoke: reproduce one benchmark with -metrics-json and
# require the five pipeline-stage spans in the report via `clap stats`.
metrics-smoke:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/clap bench sim_race -metrics-json $$tmp >/dev/null && \
	$(GO) run ./cmd/clap stats $$tmp -require record,symexec,preprocess,solve,replay >/dev/null && \
	echo "metrics-smoke: ok" ; rc=$$?; rm -f $$tmp; exit $$rc

# End-to-end flight-recorder smoke: record → solve → timeline + explain
# over two benchmarks (one with schedule flips, one whose zero-flip
# verdict exercises the reversal probe). `clap timeline -o` validates the
# Chrome trace-event JSON with the same timeline.Validate helper the
# golden tests pin; writing the artifact twice and comparing bytes guards
# end-to-end determinism.
timeline-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	for b in sim_race pbzip2; do \
		$(GO) run ./cmd/clap timeline $$b -o $$tmp/$$b.json >/dev/null && \
		$(GO) run ./cmd/clap timeline $$b -o $$tmp/$$b.again.json >/dev/null && \
		cmp -s $$tmp/$$b.json $$tmp/$$b.again.json && \
		$(GO) run ./cmd/clap explain $$b >/dev/null || { rc=1; break; }; \
	done; \
	[ $$rc -eq 0 ] && echo "timeline-smoke: ok"; rm -rf $$tmp; exit $$rc

# End-to-end daemon crash drill: ingest, deterministic kill -9 mid-job
# (via an armed CLAP_FAULTS crash point), restart, and require every
# accepted job — one intact, one with a truncated log — to reach exactly
# one terminal state with duplicate uploads served from the cache. See
# scripts/serve_smoke.sh.
serve-smoke:
	@GO="$(GO)" sh scripts/serve_smoke.sh
