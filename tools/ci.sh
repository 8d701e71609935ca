#!/bin/sh
# Local CI: build and test the flavors we care about — an optimized
# Release build, AddressSanitizer and UndefinedBehaviorSanitizer over the
# full suite, and ThreadSanitizer over the multithreaded sweep layer.
#
#   tools/ci.sh [jobs]
#
# Build trees live under build-ci/ (ignored by git).  Fails fast on the
# first failing build or test batch.
set -eu

jobs=${1:-$(nproc 2>/dev/null || echo 4)}
root=$(cd "$(dirname "$0")/.." && pwd)

run_flavor() {
    name=$1
    shift
    dir="$root/build-ci/$name"
    echo "=== [$name] configure + build ==="
    cmake -B "$dir" -S "$root" "$@"
    cmake --build "$dir" -j "$jobs"
    echo "=== [$name] ctest ==="
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

run_flavor release -DCMAKE_BUILD_TYPE=Release -DIOP_SANITIZE=
# Leak checking is off for the ASan flavor: coroutine frames of daemon
# processes (flusher loops, blocked waiters) are deliberately abandoned in
# waiter lists at engine teardown — destroying them there could release
# tokens into already-destroyed resources.  ASan still catches
# use-after-free / out-of-bounds, which is what we want from this flavor.
export ASAN_OPTIONS=detect_leaks=0
run_flavor asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIOP_SANITIZE=address
unset ASAN_OPTIONS
# UBSan reports are fatal: without halt_on_error a report is printed and
# the test still passes.  GCC leaves float-cast-overflow out of
# `undefined`, and a double -> integer conversion of hostile input (a
# journal's "pid":1e300, say) is exactly what it catches.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
run_flavor ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIOP_SANITIZE=undefined,float-cast-overflow
unset UBSAN_OPTIONS

# ThreadSanitizer covers the one multithreaded subsystem: the sweep
# layer — the cell-evaluation executor (including the fault-injected
# degraded cells of SweepExecutor.FaultAxisEndToEndDeterministicAndCached
# and the cancel/resume path), the parallel app characterization at
# campaign resolve (CampaignResolve.ParallelCharacterizationMatchesSerial,
# with the shared thread-local FrameArena under concurrent engines), and
# the run's telemetry, whose one lock serialises every sink: every hook
# called from 8 threads at once with the journal, exec trace, snapshot
# thread and logger on (RuntimeTelemetry.ConcurrentHooksKeepExactTotals),
# plus the journal/snapshotter threads of the byte-identity test, and the
# watchdog (SweepWatchdog.*), whose stuck attempts stop on their worker.
# Building only its test keeps the flavor cheap; everything else in the
# tree is single-threaded by design.  The ASan/UBSan flavors above run the
# full suite, so the hostile-input trace corpus (TraceFileHostile.*) and
# the corrupt store-cell tests execute under both sanitizers.
tsan_dir="$root/build-ci/tsan"
echo "=== [tsan] configure + build sweep_test ==="
cmake -B "$tsan_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIOP_SANITIZE=thread
cmake --build "$tsan_dir" -j "$jobs" --target sweep_test
echo "=== [tsan] sweep_test ==="
"$tsan_dir/tests/sweep_test"

echo "=== all flavors green ==="
