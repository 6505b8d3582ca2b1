# verify is what CI runs (.github/workflows/ci.yml): formatting, vet,
# build, the full test suite under the race detector, a one-iteration
# benchmark smoke pass so bench-only code paths can't rot unbuilt, and the
# bench module's vet and tests (its catalogue lint against BENCHMARK.json
# included).
.PHONY: verify stress fmt test bench bench-smoke bench-json bench-gate bench-baseline loc reach scaling

verify:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	go vet ./...
	go build ./...
	go test -race ./...
	$(MAKE) bench-smoke
	cd bench && go vet ./... && go test ./...

# stress is the concurrency check verify's single -race pass is too short
# for: the packages every cell's isolation rests on (the store's OCC and
# wound-wait locks, actor transactions, the deterministic core — whose
# follower runtimes, a sequenced geo group's regions, are appended to under
# the leader's log lock while they crash and recover — and the WAL
# whose WaitDurable its interval-mode two-phase ack rests on, and the
# stateful-functions engine, whose egress callbacks run on one goroutine
# per partition, and the broker, whose append wakeup hands a
# channel from the appending goroutine to the parked reader) and the root
# package's submit / shed / session / read-only / wide-transaction / geo /
# statefun-cell tests (the dataflow cell's key functions reach each
# other's state on their partition's goroutine) / micro-cell tests (a
# saga's steps run concurrently with other sagas' reads and steps on the
# same shard databases) / FaaS- and actor-cell tests (concurrent ops
# share the rows the store hands out uncopied), ten times each under the
# race detector at 1, 2, 4 and 8 Ps, and so are the packages the micro
# cell's exactly-once rests on (the dedup store's in-flight locking under concurrent sagas, behind
# the rpc idempotency middleware, the saga orchestrator and the micro
# framework that binds them), and the FaaS platform, whose critical
# sections each keep one store transaction open under their entity locks
# while other sections, Signals and readers run on the same entity
# database, and the fabric, whose cached list of up nodes Crash and
# Restart rebuild while every actor access places a key on it — the bugs
# ROADMAP item 1 lists only showed at more than one
# P, and not on every run. The first line is the store's OCC retry test
# 200 times without the race detector: the setting where back-to-back
# retries exhausted. The last three fuzz the TPC-C args decoder against encoding/json for 15 s,
# then, 10 s each, the dataflow cell's message frame (against the JSON
# encoding it replaced) and the statefun envelope frame.
stress:
	go test -count=200 -run TestUpdateRetriesConflicts ./internal/store
	go test -race -count=10 -cpu 1,2,4,8 ./internal/store ./internal/actor ./internal/core ./internal/wal ./internal/statefun ./internal/mq ./internal/dedup ./internal/rpc ./internal/saga ./internal/micro ./internal/faas ./internal/fabric
	go test -race -count=10 -cpu 1,2,4,8 -run 'Submit|Shed|Session|ReadOnly|WideTxn|Geo|Statefun|Micro|Faas|Actor' .
	go test -run '^$$' -fuzz '^FuzzDecodeTPCCOp$$' -fuzztime 15s ./internal/workload
	go test -run '^$$' -fuzz '^FuzzSfMsgFrame$$' -fuzztime 10s .
	go test -run '^$$' -fuzz '^FuzzEnvelopeFrame$$' -fuzztime 10s ./internal/statefun

fmt:
	gofmt -w .

test:
	go test ./...

bench:
	go test -bench . -benchtime 1000x

# bench-smoke runs every benchmark exactly once (no tests), then the whole
# experiment registry once more through the tcabench binary's own flag and
# JSON surface: a fast compile-and-execute check of every bench-only code
# path — the live auditors, the real-WAL core cells (throwaway temp-dir
# logs, removed when each run ends), the admission-control path past a
# measured capacity, and the geo-replication path — so none can rot unbuilt
# and a failing row fails verify.
bench-smoke:
	go test -bench . -benchtime 1x -run '^$$'
	go run ./cmd/tcabench -json -ops 16 > /dev/null

# bench-json writes a machine-readable summary of the registry's table
# rows to BENCH_latest.json so the perf trajectory can be tracked across
# PRs (compare the same row/metric between commits). The tracked file is
# also the golden row list internal/experiments' test holds the registry
# to: regenerate it when a row is deliberately added or renamed.
BENCH_OPS ?= 300
bench-json:
	go run ./cmd/tcabench -json -ops $(BENCH_OPS) > BENCH_latest.json
	@echo "wrote BENCH_latest.json"

# bench-gate is the pinned regression gate: run the registry's gate-marked
# rows (tcabench -grid: E10's three load models, a model-mode E16 partition
# pair, one E23 shed-on overload point, one E24 2-region async geo point —
# each row GATE_REPEATS seeded repeats) and diff them against the
# checked-in baseline (ci/bench_baseline.json) with the std-aware compare:
# a throughput delta gates only when it exceeds ±20% AND 2× the pooled
# repeat std, and a row missing from the fresh run fails outright. The
# rows are pinned by construction, not verified across machines: E10
# drives workload.SpinService(1, 100µs) (capacity 10k ops/s), E16 runs the
# core on the modeled 80µs append (no filesystem — but its tx/s is still
# host CPU speed), E23 offers a fixed 2000/s well below capacity so
# goodput tracks the offered rate, and E24 paces a 2-region async replica
# group at a fixed 500/s with modeled WAN latency (the gated read p99 is
# fabric-trace time). The grid JSON lands in BENCH_gate.json (CI uploads
# it as an artifact).
GATE_OPS ?= 8000
GATE_REPEATS ?= 3
bench-gate:
	go run ./cmd/tcabench -grid -ops $(GATE_OPS) -repeats $(GATE_REPEATS) -seed 1 > BENCH_gate.json
	go run ./cmd/tcabench -compare -threshold 20 ci/bench_baseline.json BENCH_gate.json

# bench-baseline regenerates the gate baseline in place — deliberately,
# with the same knobs as bench-gate, only when the harness or the gate
# rows themselves change.
bench-baseline:
	go run ./cmd/tcabench -grid -ops $(GATE_OPS) -repeats $(GATE_REPEATS) -seed 1 > ci/bench_baseline.json
	@echo "wrote ci/bench_baseline.json"

# loc prints the two numbers ROADMAP tracks: non-test and test lines of Go
# outside bench/ (the benchmark module is not the system under study). It
# is also a ratchet: it fails when the non-test count exceeds LOC_CEILING,
# so a change that grows the system raises the ceiling in its own diff.
LOC_CEILING = 20442
loc:
	@nontest=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l); \
	echo "non-test Go lines: $$nontest"; \
	echo "test Go lines:     $$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)"; \
	if [ "$$nontest" -gt $(LOC_CEILING) ]; then \
		echo "non-test Go lines $$nontest exceed LOC_CEILING $(LOC_CEILING): raise it in the same change if the growth is intended" >&2; exit 1; \
	fi

# reach prints the two lists internal/reach's tier-1 test holds to the
# allow-list ci/unreached.txt: the functions and methods no program (a
# main under cmd/, examples/ or bench/, an init, a package-level
# initializer) reaches, and the …Config/…Options fields no non-test code
# sets, each with its line totals per package, for a change to quote.
reach:
	@out=$$(go test -count=1 -run '^TestReachReport$$' -v ./internal/reach) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -v -e '^=== RUN' -e '^--- PASS' -e '^PASS' -e '^ok'

# scaling measures how every bench/ workload scales from one CPU to all of
# them (the bench caps GOMAXPROCS at 4): the timed pass of bench/run.sh
# once pinned to CPU 0 with taskset (Go's NumCPU follows the affinity
# mask, so the bench runs at GOMAXPROCS 1) and once unpinned. Both runs
# write their results to a temp dir, removed on exit, so nothing lands
# under bench/. The bench's -compare prints, per workload, both runs' tx/s
# and CPU/op and their ratio (its verdict column is not a gate here).
# Needs taskset.
scaling:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	taskset -c 0 bash bench/run.sh -trace 0 -out "$$dir/one" > "$$dir/one.log" || { cat "$$dir/one.log"; exit 1; }; \
	bash bench/run.sh -trace 0 -out "$$dir/all" > "$$dir/all.log" || { cat "$$dir/all.log"; exit 1; }; \
	bash bench/run.sh -compare "$$dir/one/results.json" "$$dir/all/results.json" | grep -E '^workload|tx_s|cpu_us_per_op'
