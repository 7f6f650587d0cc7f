#!/usr/bin/env bash
# Runs the microbenchmarks, then the repository benchmark (perfbench/) on
# every workload, and refreshes the BENCH_<workload>.json records.
#
# Each workload runs untraced (end-to-end metrics, BENCH_<w>.json) and
# traced (per-layer metrics, BENCH_<w>_traced.json) with perfbench's
# defaults: seed 1, 20 s per run. A fresh record is gated against the
# committed one with `perfbench/run.sh --compare` before it replaces it:
# a regression past a bound fails the script and leaves the committed
# record alone; a record from another host is not compared, only
# replaced.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

echo "== interpreter hot-loop microbenchmarks (internal/cpu) =="
go test -run '^$' \
  -bench 'BenchmarkMachineStep|BenchmarkMachineRunTimed|BenchmarkTimedBlock|BenchmarkTimedNoCache|BenchmarkMemory|BenchmarkCacheAccess|BenchmarkTimingObserve' \
  -benchtime "$BENCHTIME" ./internal/cpu/

echo
echo "== observer microbenchmarks (internal/obs) =="
go test -run '^$' \
  -bench 'BenchmarkNopObserver|BenchmarkRecorderObserver' \
  -benchtime "$BENCHTIME" ./internal/obs/

echo
echo "== detector, profiling-pass, timed-run and suite-parallelism benches (repo root) =="
go test -run '^$' \
  -bench 'BenchmarkTable2Machine|BenchmarkHSDThroughput|BenchmarkProfileTimed|BenchmarkSuiteJobs' \
  -benchtime "$BENCHTIME" .

echo
echo "== static-verifier serial cost per pipeline run (internal/verify) =="
go test -run '^$' -bench 'BenchmarkPipelineVerify' \
  -benchtime "$BENCHTIME" ./internal/verify/

echo
echo "== drift-tracker ingest cost (internal/drift) =="
# Per-record cost of the daemon's drift path: an enabled tracker with a
# baseline set (window aggregation + scoring at window close) vs a
# disabled tracker (-driftwindow 0), which must be within noise of free —
# a single atomic-free Enabled() check per record.
go test -run '^$' -bench 'BenchmarkTrackerObserve' \
  -benchtime "$BENCHTIME" ./internal/drift/

out_tmp="$(mktemp -d)"
trap 'rm -rf "$out_tmp"' EXIT
for w in suite trusted-store daemon; do
  for t in 0 1; do
    name="BENCH_$w.json"
    [ "$t" = 1 ] && name="BENCH_${w}_traced.json"
    echo
    echo "== perfbench workload=$w trace=$t -> $name =="
    bash perfbench/run.sh --workload "$w" --trace "$t" --out "$out_tmp/$name"
    if [ -f "$name" ]; then
      status=0
      bash perfbench/run.sh --compare "$name" "$out_tmp/$name" || status=$?
      case "$status" in
        0) ;;
        2) echo "not compared: host differs" ;;
        *) echo "bench.sh: $w trace=$t regressed past a bound; $name left as it was" >&2
           exit 1 ;;
      esac
    fi
    mv "$out_tmp/$name" "$name"
  done
done
