#!/bin/sh
# Tier-1+ gate: vet, build, and race-enabled tests for the whole module.
# Keep in sync with `make check` and the gate recorded in ROADMAP.md.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: gofmt -l prints offending files; any output fails.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race ./...
# Benchmark smoke: one iteration of every benchmark, so a refactor that
# breaks a bench harness (or reintroduces per-op allocation panics) is
# caught here and not at artifact-regeneration time.
go test -run '^$' -bench . -benchtime 1x ./...
# Disabled-tracer allocation gate: the flight-recorder instrumentation
# on the analysis hot path must stay free when no tracer is attached.
# The benchmarks measure exactly the per-state emit mix on a nil track
# (core), the cluster wire-edge call sites (cluster), and the
# job-lifecycle call sites (server); anything but "0 allocs/op" fails.
for pkg in ./internal/core ./internal/cluster ./internal/server; do
	go test -run '^$' -bench BenchmarkDisabledTraceHotPath -benchtime=1x "$pkg" |
		tee /dev/stderr | grep -q 'BenchmarkDisabledTraceHotPath.* 0 allocs/op'
done
# Trace round-trip smoke: record a run, summarize the Chrome JSON and
# the JSONL dump with gpotrace, and check both formats parse back.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
go run ./cmd/gpoverify -model nsdp -size 5 -trace "$TRACE_TMP/t.json" >/dev/null
go run ./cmd/gpoverify -model nsdp -size 5 -trace "$TRACE_TMP/t.jsonl" >/dev/null
go run ./cmd/gpotrace "$TRACE_TMP/t.json" | grep -q 'states:'
go run ./cmd/gpotrace "$TRACE_TMP/t.jsonl" | grep -q 'states:'
# Zero-subscriber streaming gate: a progress update with no SSE
# subscriber must stay allocation-free, or every unwatched daemon run
# pays for the introspection surface.
go test -run '^$' -bench BenchmarkProgressPublishNoSubscribers -benchtime=1x ./internal/obs |
	tee /dev/stderr | grep -q 'BenchmarkProgressPublishNoSubscribers.* 0 allocs/op'
# Fuzz smoke: 5 seconds of FuzzParse against the hardened pnio parser,
# 5 seconds of FuzzFrameRoundTrip against the cluster frame codec
# (the bytes every peer accepts from the network), and 5 seconds of
# FuzzCkptRead against the ckpt/v1 checkpoint reader (the bytes a
# restarted daemon trusts enough to resume from).
go test -fuzz=FuzzParse -fuzztime=5s -run '^$' ./internal/pnio
go test -fuzz=FuzzFrameRoundTrip -fuzztime=5s -run '^$' ./internal/cluster
go test -fuzz=FuzzCkptRead -fuzztime=5s -run '^$' ./internal/ckpt
# Ledger round-trip smoke: two gpoverify runs journal under the same
# content-addressed run ID, gpostat -history reconstructs one group of
# two runs from the journal, and repeated reads are deterministic.
go run ./cmd/gpoverify -model nsdp -size 4 -engine gpo -ledger "$TRACE_TMP/runs.jsonl" >/dev/null
go run ./cmd/gpoverify -model nsdp -size 4 -engine gpo -ledger "$TRACE_TMP/runs.jsonl" >/dev/null
test "$(grep -c '"schema":"ledger/v1"' "$TRACE_TMP/runs.jsonl")" = 2
test "$(grep -o '"run_id":"[^"]*"' "$TRACE_TMP/runs.jsonl" | sort -u | wc -l)" = 1
go run ./cmd/gpostat -history -ledger "$TRACE_TMP/runs.jsonl" >"$TRACE_TMP/hist1.txt"
go run ./cmd/gpostat -history -ledger "$TRACE_TMP/runs.jsonl" >"$TRACE_TMP/hist2.txt"
cmp "$TRACE_TMP/hist1.txt" "$TRACE_TMP/hist2.txt"
grep -q 'NSDP(4) *gpo *deadlock *2' "$TRACE_TMP/hist1.txt"
# Reduction smoke: the structural reduction pre-pass must actually
# shrink two Table 1 instances and reach the same verdict as the
# unreduced run (the full engine matrix is TestReduceEquivalentOnTable1;
# this pins the CLI flag end to end). The verdict token is field 2 of
# the engine row.
for spec in 'nsdp 6' 'rw 9'; do
	set -- $spec
	go run ./cmd/gpoverify -model "$1" -size "$2" >"$TRACE_TMP/base.txt"
	go run ./cmd/gpoverify -model "$1" -size "$2" -reduce >"$TRACE_TMP/red.txt"
	grep -q 'reduced: -[1-9][0-9]* places' "$TRACE_TMP/red.txt"
	base_verdict=$(awk '$1 == "gpo" { print $2 }' "$TRACE_TMP/base.txt")
	red_verdict=$(awk '$1 == "gpo" { print $2 }' "$TRACE_TMP/red.txt")
	test -n "$base_verdict" && test "$base_verdict" = "$red_verdict"
done
# Safety smoke: all five -compare engines, with and without the
# reduction pre-pass, must find the reachable NSDP(2) bad set
# {hasL0,hasL1} and print a witness in the input net's places (a
# monitored-net witness would crash the printer).
for reduce in '' -reduce; do
	go run ./cmd/gpoverify -model nsdp -size 2 -compare -safety hasL0,hasL1 $reduce >"$TRACE_TMP/safety.txt"
	test "$(awk '$2 == "REACHABLE"' "$TRACE_TMP/safety.txt" | wc -l)" = 5
done
# Service smoke: boot gpod on a random port, push one verification over
# the wire with the client package, drain, shut down. With -ledger the
# smoke also walks the /v1/runs surface (history listing, by-id lookup,
# SSE stream terminating in a verdict matching the response).
go run ./cmd/gpod -smoke -ledger "$TRACE_TMP/gpod-runs.jsonl"
go run ./cmd/gpostat -history -ledger "$TRACE_TMP/gpod-runs.jsonl" | grep -q 'NSDP(4)'
# Cluster smoke: three full gpod servers on loopback ports as one
# cluster — distributed nsdp(8)/rw(12) runs checked bit-identical
# against in-process sequential BFS, then the repeated request answered
# from the shared result tier with zero re-exploration anywhere.
go run ./cmd/gpod -cluster-smoke -cluster-smoke-out "$TRACE_TMP/cluster.json"
grep -q '"recomputed_states": 0' "$TRACE_TMP/cluster.json"
# Trace-merge smoke: a 3-peer loopback cluster run with tracing on —
# the merged timeline must reconstruct exactly the fleet-wide
# reach.states count and render the per-level attribution table (both
# asserted inside -trace-smoke), and the raw bundle it writes must
# merge again through the gpotrace CLI.
go run ./cmd/gpod -trace-smoke -trace-smoke-out "$TRACE_TMP/bundle.json"
go run ./cmd/gpotrace -merge -o "$TRACE_TMP/merged.json" "$TRACE_TMP/bundle.json" \
	>"$TRACE_TMP/attrib.txt"
grep -q 'slowest' "$TRACE_TMP/attrib.txt"
grep -q 'gpotrace-merged/v1' "$TRACE_TMP/merged.json"
# Durable-jobs smoke: submit an async job, kill the daemon after its
# first checkpoint, restart over the same directory, auto-resume, and
# require the resumed verdict to be identical to a fresh uninterrupted
# run (DESIGN.md D11).
go run ./cmd/gpod -jobs-smoke
# Replay smoke: suspend a run at a checkpoint, then re-execute the
# prefix deterministically — bit-identical snapshot, same event stream,
# and event counts matching the suspended run's own flight recorder.
# The suspend output goes to a file: piped into grep -q, gpoverify could
# die of SIGPIPE before writing its trace.
go run ./cmd/gpoverify -model nsdp -size 6 -engine exhaustive \
	-ckpt "$TRACE_TMP/nsdp6.ckpt" -ckpt-states 500 \
	-trace "$TRACE_TMP/suspend.trace.jsonl" >"$TRACE_TMP/suspend.txt"
grep -q 'suspended' "$TRACE_TMP/suspend.txt"
go run ./cmd/gpoverify -replay "$TRACE_TMP/nsdp6.ckpt" \
	-trace-ref "$TRACE_TMP/suspend.trace.jsonl" | grep -q 'replay: OK'
