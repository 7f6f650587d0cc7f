#!/usr/bin/env bash
# Tier-1 verification: build, gofmt, vet (including the repo's own vplint
# checks), full test suite, race-detector passes over the parallel
# evaluation engine's worker pool and the observability + telemetry-serving
# layers it reports through, a verifier-gated suite pass, and the trace
# regression gate (a fresh pipeline trace diffed against the committed
# golden).
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
# Formatting gate: every Go file, perfbench included, must be gofmt-clean.
test -z "$(gofmt -l .)" || { echo "gofmt -l lists unformatted files:" >&2; gofmt -l . >&2; exit 1; }
go vet ./...
# perfbench is a module of its own, so `go test ./...` never compiles it:
# vet it here so a deleted or renamed API it uses fails verification.
(cd perfbench && go vet ./...)
# The benchmark driver is not run here; at least make sure it parses.
bash -n scripts/bench.sh

# Repository-specific static checks (insts-mutation, dropped-observer,
# mutate-after-hash) via the vet unitchecker protocol; vplint needs an
# absolute path.
mkdir -p bin
go build -o bin/vplint ./cmd/vplint
go vet -vettool="$(pwd)/bin/vplint" ./...
go test ./...
# Instruction limit and packed-run budget, once more under a one-minute
# timeout: each runs a program that never halts, so a regression that
# lets the block engine or Evaluate run past its limit fails here within
# a minute instead of at go test's 10-minute default.
go test -count=1 -timeout 60s -run '^TestBlockEngineLimit$' ./internal/cpu
go test -count=1 -timeout 60s -run '^(TestEvaluateBudget|TestProfileTimedMatchesStepLoop)$/^limited$' ./internal/core
go test -count=1 -timeout 60s -run '^TestTimePackedBudget$' ./internal/report
# Assembler fuzzing: a bounded run of the native fuzz target from its
# checked-in seed corpus (internal/asm/testdata/fuzz/FuzzAssemble). An
# input that panics the assembler, or that it accepts but cannot round
# trip through the disassembler, fails verification here. Every fuzz step
# caps minimization of a newly interesting input at 200 execs: with the
# default 60 s cap a fresh fuzz cache spends the whole 10 s minimizing.
go test -run='^$' -fuzz=FuzzAssemble -fuzztime=10s -fuzzminimizetime=200x ./internal/asm
# Artifact decoder fuzzing (package set, profile artifact, region
# artifact, provenance record), each seeded from internal/core/testdata/fuzz/<target>: a
# decoder must never panic, and any value it accepts must re-encode to a
# fixed point.
go test -run='^$' -fuzz=FuzzDecodePackageSet -fuzztime=10s -fuzzminimizetime=200x ./internal/core
go test -run='^$' -fuzz=FuzzDecodeProfileArtifact -fuzztime=10s -fuzzminimizetime=200x ./internal/core
go test -run='^$' -fuzz=FuzzDecodeRegionArtifact -fuzztime=10s -fuzzminimizetime=200x ./internal/core
go test -run='^$' -fuzz=FuzzDecodeProvenance -fuzztime=10s -fuzzminimizetime=200x ./internal/core
# Evaluation-record fuzzing, seeded from a stored record in
# internal/cas/testdata/fuzz/FuzzDecodeEvaluation: a mangled record must
# be refused with ErrCorrupt, never panic, and an accepted one must
# re-encode to a fixed point.
go test -run='^$' -fuzz=FuzzDecodeEvaluation -fuzztime=10s -fuzzminimizetime=200x ./internal/cas
# Store-open fuzzing, seeded from a flushed two-entry store in
# internal/cas/testdata/fuzz/FuzzOpen: a fuzzed manifest and segment must
# open, every listed entry must read as data or a clean ErrCorrupt /
# ErrNotFound miss, and Verify and Stats must not panic.
go test -run='^$' -fuzz=FuzzOpen -fuzztime=10s -fuzzminimizetime=200x ./internal/cas
# Store write-path fuzzing, seeded from
# internal/cas/testdata/fuzz/FuzzPutFlush: a fuzzed script of Puts (kind
# strings, keys and blob lengths fuzzed), Flushes and one GC. After every
# Flush the manifest must match the encoding/json reference writer, every
# entry must read back with its FNV-1a hash, and a reopened store must
# list the same entries.
go test -run='^$' -fuzz=FuzzPutFlush -fuzztime=10s -fuzzminimizetime=200x ./internal/cas
# Daemon ingest fuzzing: profile POST bodies against one test daemon,
# seeded from cmd/vpackd/testdata/fuzz/FuzzHandleProfile. Every answer
# must be 200, 400, 409, 413 or 422, and a 200 must count exactly the
# hot spots posted.
go test -run='^$' -fuzz=FuzzHandleProfile -fuzztime=10s -fuzzminimizetime=200x ./cmd/vpackd
go test -race ./internal/report/...
go test -race ./internal/obs/...
go test -race ./internal/telemetry/...
# Two-tier timed simulation: race the whole cpu package — the block
# cache's concurrent-use shape (shared image, private caches), the
# superblock tier's promotion/demotion machinery, and the randomized
# tier-equivalence property tests all run under the race detector.
go test -race ./internal/cpu/...
# Staged pipeline API + daemon: artifact round trips, staleness checks,
# the resumability golden (staged == straight-through, byte for byte)
# and vpackd's sharded ingest under 1000 concurrent streams.
go test -race ./cmd/vpackd/... ./internal/core/...
# Drift telemetry: windowed trackers and the bounded event ring under
# concurrent writers/readers.
go test -race ./internal/drift/...
# Persistent artifact store: chunked segments, manifest recovery,
# corruption-safety (truncated/bit-flipped/missing segments, stale or
# tampered manifests) and GC, all under the race detector.
go test -race ./internal/cas/...
# Translation validation: concurrent proofs share nothing but the
# read-only snapshot; race the whole prover, including the mutation
# corpus (every seeded semantic bug must be refuted with a usable
# counterexample — TestMutationCorpus fails otherwise).
go test -race ./internal/equiv/...

# Verifier-gated pipeline pass: every stage's output re-checked against
# the internal/verify rule catalog on a real multi-benchmark run. Any
# rule firing exits 3 and fails verification here.
go run ./cmd/vpverify -q -bench gzip -input A -scale 1
go run ./cmd/vpverify -q -bench perl -input A -scale 1

# Equivalence-gated pipeline pass: every optimized package of every
# variant of every benchmark input symbolically proved against the region
# code it replaced (exit 4 on refutation — a live miscompile in the
# opt/pack passes, or a proof past its path budget, which is refused).
go run ./cmd/vpverify -q -equiv -all

# Trace regression gate: the golden is Normalize()d (wall times zeroed),
# so this diff bites exactly on the deterministic pipeline counters —
# phases detected, regions grown, packages built/linked, simulated
# cycles. A counter regressing >10% fails verification. (That both
# timed tiers agree is a Go test: internal/report's
# TestRunSuiteTier0Identical runs the suite with superblocks off.)
trace_tmp="$(mktemp)"
trap 'rm -f "$trace_tmp"' EXIT
go run ./cmd/vpack -bench gzip -input A -scale 1 -q -log off -trace "$trace_tmp" >/dev/null
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"
# Second pass: -store enabled against a fresh directory. The store-aware
# pipeline path must emit a byte-identical trace (profile write-through
# happens outside the observed spans), so the same golden gates it.
store_tmp="$(mktemp -d)"
trap 'rm -f "$trace_tmp"; rm -rf "$store_tmp"' EXIT
go build -o bin/vpack ./cmd/vpack
bin/vpack -bench gzip -input A -scale 1 -log off -store "$store_tmp/st" -trace "$trace_tmp" >"$store_tmp/cold.txt"
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"
# Warm pass on the same directory: the stored profile and baseline serve
# the run, so its trace has no profile span, and its report, baseline
# cycles included, is byte-identical to the cold run's. The span check is
# also fed the cold trace, which it must refuse.
no_profile_span() { ! grep -q '"name": "profile"' "$1"; }
! no_profile_span "$trace_tmp" \
    || { echo "profile-span check accepted the cold trace" >&2; exit 1; }
bin/vpack -bench gzip -input A -scale 1 -log off -store "$store_tmp/st" -trace "$store_tmp/warm.json" >"$store_tmp/warm.txt"
no_profile_span "$store_tmp/warm.json" \
    || { echo "warm vpack -store run profiled again" >&2; exit 1; }
cmp "$store_tmp/cold.txt" "$store_tmp/warm.txt" \
    || { echo "warm vpack -store report differs from the cold one" >&2; exit 1; }

# Store cold→warm→restart smoke. A cold suite populates a fresh store;
# the warm rerun, a fresh process on the same directory, must serve
# every profile and package from it: its -metrics counter table may show
# no nonzero store.*_misses line, and its store.profile_hits and
# store.package_hits must equal the cold run's misses (4 and 16 today).
# The gate is also fed the cold run's table, which it must refuse. Every
# warm variant replays its stored evaluation, so the warm table may show
# no eval_memo.* traffic (the cold table must, or the check proves
# nothing). vpcache must verify the store clean.
go build -o bin/vpbench ./cmd/vpbench
go build -o bin/vpcache ./cmd/vpcache
store_cold="$(bin/vpbench -q -bench m88ksim,perl -scale 1 -store "$store_tmp/suite" -metrics)"
store_warm="$(bin/vpbench -q -bench m88ksim,perl -scale 1 -store "$store_tmp/suite" -metrics)"
counter() { awk -v n="$1" '$1==n{v=$2} END{print v+0}' <<<"$2"; }
cold_profile_misses="$(counter store.profile_misses "$store_cold")"
cold_package_misses="$(counter store.package_misses "$store_cold")"
warm_store_ok() {
    awk -v pm="$cold_profile_misses" -v km="$cold_package_misses" '
        $1 ~ /^store\.(profile|package)_misses$/ && $2 != 0 {bad=1}
        $1 == "store.profile_hits" {ph=$2}
        $1 == "store.package_hits" {kh=$2}
        END {exit !(!bad && pm > 0 && km > 0 && ph == pm && kh == km)}' <<<"$1"
}
warm_store_ok "$store_warm" \
    || { echo "warm store run did not serve all $cold_profile_misses profiles and $cold_package_misses package sets:" >&2
         grep '^store\.' <<<"$store_warm" >&2; exit 1; }
! warm_store_ok "$store_cold" \
    || { echo "store gate accepted the cold run's counters" >&2; exit 1; }
no_eval_memo() { awk '$1 ~ /^eval_memo\./ && $2 != 0 {bad=1} END {exit bad+0}' <<<"$1"; }
no_eval_memo "$store_warm" \
    || { echo "warm store run timed variants instead of replaying them:" >&2; grep '^eval_memo\.' <<<"$store_warm" >&2; exit 1; }
! no_eval_memo "$store_cold" \
    || { echo "eval_memo gate accepted the cold run's table" >&2; exit 1; }
# The suite store serves vpack too: one profile protocol, so a
# single-program run of a suite input is warm.
bin/vpack -bench perl -input A -scale 1 -q -log off -store "$store_tmp/suite" -trace "$store_tmp/perl.json" >/dev/null
no_profile_span "$store_tmp/perl.json" \
    || { echo "vpack did not reuse the vpbench store's perl profile" >&2; exit 1; }
bin/vpcache verify -store "$store_tmp/suite" >/dev/null

# Daemon smoke test: boot vpackd on a free port, stream 100 hot-spot
# records from 8 concurrent clients (vpbench's load-generator mode,
# which also fetches the published package and checks every family the
# obs metric table declares always present on vpackd — queue, repack,
# queue-wait, vp_drift_* — by its exact TYPE line and kind, naming any
# that are missing), then induce a phase shift (-phaseshift) and
# confirm the drift score demonstrably rises: a nonzero vp_drift_peak
# must appear on /metrics and the vptrace drift view must report the
# program. Finally verify SIGTERM shuts the daemon down cleanly
# (exit 0, queue drained). Only vpackd takes -driftwindow/-driftring:
# vpbench reads the daemon's window from /v1/drift and sizes its shift
# burst to span whole tracker windows.
daemon_dir="$(mktemp -d)"
daemon_pid=""
trap 'rm -f "$trace_tmp"; rm -rf "$store_tmp" "$daemon_dir"; [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true' EXIT
go build -o bin/vpackd ./cmd/vpackd
go build -o bin/vptrace ./cmd/vptrace
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr" -bench m88ksim -scale 1 -batch 10 \
    -driftwindow 4 -driftring 32 -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr" ] || { echo "vpackd never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr")"
bin/vpbench -daemon "http://$daemon_addr" -streams 8 -records 100 -phaseshift -log off
curl -sf "http://$daemon_addr/v1/packages/m88ksim/latest" >/dev/null
# Captured output is grepped through a here-string, never a pipe: grep
# -q exits at its first match, and under pipefail the writer's broken
# pipe would fail the step.
grep -q '"trace"' <<<"$(curl -sf "http://$daemon_addr/v1/provenance/m88ksim/latest")"
grep -q '"enabled": *true' <<<"$(curl -sf "http://$daemon_addr/v1/drift/m88ksim")"
awk '$1=="vp_drift_peak"{found=1; exit !($2>0)} END{if(!found) exit 1}' <<<"$(curl -sf "http://$daemon_addr/metrics")" \
    || { echo "phase shift left vp_drift_peak at zero" >&2; exit 1; }
curl -sf "http://$daemon_addr/trace" > "$daemon_dir/trace.json"
grep -q '^m88ksim' <<<"$(bin/vptrace drift "$daemon_dir/trace.json")" \
    || { echo "vptrace drift view missing m88ksim row" >&2; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd did not exit cleanly" >&2; exit 1; }
daemon_pid=""

# Daemon store restart: boot with -store, ingest enough records to
# trigger a repack (which persists the version + provenance), SIGTERM
# (drains and fsyncs the manifest), then reboot on the same store
# directory and fetch the previous latest package and provenance
# WITHOUT streaming a single record — restart recovery, not a repack.
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr2" -bench m88ksim -scale 1 -batch 10 \
    -store "$daemon_dir/store" -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr2" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr2" ] || { echo "vpackd (store) never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr2")"
bin/vpbench -daemon "http://$daemon_addr" -streams 4 -records 50 -log off
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd (store) did not exit cleanly" >&2; exit 1; }
daemon_pid=""
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr3" -bench m88ksim -scale 1 -batch 10 \
    -store "$daemon_dir/store" -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr3" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr3" ] || { echo "vpackd (restart) never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr3")"
curl -sf "http://$daemon_addr/v1/packages/m88ksim/latest" >/dev/null \
    || { echo "restarted vpackd lost the published package" >&2; exit 1; }
grep -q '"trace"' <<<"$(curl -sf "http://$daemon_addr/v1/provenance/m88ksim/latest")" \
    || { echo "restarted vpackd lost the provenance record" >&2; exit 1; }
grep -q '^vp_vpackd_versions_recovered [1-9]' <<<"$(curl -sf "http://$daemon_addr/metrics")" \
    || { echo "restarted vpackd recovered no versions" >&2; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd (restart) did not exit cleanly" >&2; exit 1; }
daemon_pid=""

echo "tier-1 verify: OK"
