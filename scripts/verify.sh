#!/usr/bin/env bash
#===- scripts/verify.sh - Tier-1 suite + TSan race check + ASan/UBSan -----===#
#
# Part of fcsl-cpp. Nine stages:
#
#   1. Tier-1: configure + build + full ctest in build/ (the gate every
#      PR must keep green).
#   2. TSan: a separate build tree (build-tsan/) compiled with
#      -DFCSL_SANITIZE=thread; the thread pool, the parallel exploration
#      engine, the lock-striped intern arena, the runtime structures, and
#      the service daemon (concurrent sessions under different modes) are
#      run under the race detector, as are the engine tests (env rows and
#      the thread-step memo shared by four workers) and the simulate
#      tests (the step core simulate shares with the engine). The
#      binaries are invoked directly rather than through ctest so only
#      the relevant targets need to build.
#   3. ASan+UBSan: a third build tree (build-asan/) compiled with
#      -DFCSL_SANITIZE=address,undefined and with assertions on (its
#      RelWithDebInfo flags drop -DNDEBUG; the other two trees keep it,
#      so this is the one stage where assert() runs); the intern-arena,
#      codec and symmetry tests run under it, along with the dist wire,
#      cache and service tests, since those layers do the
#      pointer-identity, raw-byte and pointer-renaming manipulation where
#      memory bugs would hide. The soundness tests run there too, so the
#      engine's assertions see every deliberately broken action. The
#      engine, parallel-engine, POR, simulate and trace tests run
#      too:
#      configurations are handles into hash-cons tables each exploration
#      frees with its visited set, edited copy-on-write, and failure
#      traces are rendered through parent nodes, so a handle that outlives
#      its table or a stale private copy would show up there.
#      The decoders must stay fail-soft: malformed frames, including the
#      retired tags 2 to 7 of the sharded exploration, are rejected and
#      never crash. With assertions on, every hit of a computed table
#      (the per-thread caches of joins and updates, support/Intern.h) is
#      recomputed through the uncached path and must return the same
#      node, so these tests cross-check the tables across the engine,
#      soundness and symmetry workloads; the PCM, heap, history and flat
#      combiner tests run here for the same reason.
#   4. Jobs: the plain engine's report (fcsl-verify --cache=off verify
#      all, every reduction off) at --jobs 4 must equal the --jobs 1
#      report, timings stripped. The workers share one exploration's
#      hash-cons tables, thread-step memo and env rows, and a row or memo
#      entry served to the wrong worker would show up as a changed
#      counter or terminal. The same diff runs for the reduced engine
#      under --por=on --symmetry=on and under --por=on, whose
#      expansions read the env rows, and under --symmetry=on alone, where
#      the workers share the thread-step memo with orbit groups forming;
#      the report omits the POR and orbit effort counters, which may vary
#      with the schedule.
#   5. POR oracle: fcsl-verify --por=check runs every Table-1 session
#      through the soundness oracle — each exploration runs once on the
#      plain engine (POR off, symmetry off) and once reduced — and fails
#      on any divergence in verdicts or terminal states, at 1 and 4 jobs,
#      alone and composed with symmetry reduction (one oracle checks both
#      reductions together). --por=check-dynamic is a spelling of
#      --por=check, so it gets no leg of its own.
#   6. Symmetry: fcsl-verify --symmetry=on must report the same verdicts
#      and obligation counts as --symmetry=off (per-config check counts
#      shrink — that is the reduction), and --symmetry=check — the same
#      oracle with the canonical space as the reduced run, comparing
#      terminals modulo fresh-pointer renaming — must pass alone and
#      composed with POR (--por=on, and --por=check: still two
#      explorations, the plain engine against both reductions).
#   7. Cache: a cold run against an empty obligation store and a warm
#      rerun must print byte-identical reports (modulo timings), the warm
#      run must be 100% hits, and --cache=check — which re-discharges
#      every hit and compares the stored verdict against the fresh one —
#      must pass alone and composed with POR and symmetry.
#   8. Service: fcsl-serve on a temp socket serves every Table-1 session
#      to fcsl-client cold and warm under --por=dynamic --symmetry=on
#      (dynamic is a spelling of on, so this also drives POR byte 3);
#      both passes must print the same report as a direct fcsl-verify run
#      (modulo timings), the warm pass must be 100% fast-path serves with
#      zero additional engine sessions (asserted from the daemon's stats
#      frame), and a client Shutdown must exit the daemon cleanly.
#   9. Perfbench: python3 perfbench/run.py --self-test builds the
#      repository benchmark against src/ and runs its own checks, so a
#      change that breaks a name the benchmark links against fails here
#      rather than in a benchmark run.
#
# Usage: scripts/verify.sh [--no-tsan] [--no-asan] [--no-por]
#                          [--no-symmetry] [--no-cache] [--no-service]
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TSAN=1
RUN_ASAN=1
RUN_POR=1
RUN_SYMMETRY=1
RUN_CACHE=1
RUN_SERVICE=1
for Arg in "$@"; do
  case "$Arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --no-por) RUN_POR=0 ;;
    --no-symmetry) RUN_SYMMETRY=0 ;;
    --no-cache) RUN_CACHE=0 ;;
    --no-service) RUN_SERVICE=0 ;;
    *) echo "unknown flag: $Arg" >&2; exit 2 ;;
  esac
done

# Shared exit cleanup: scratch dirs registered by stages, plus the service
# daemon if a failure leaves it running.
CLEANUP_DIRS=""
ServePid=""
cleanup() {
  [[ -n "$ServePid" ]] && kill "$ServePid" 2>/dev/null
  [[ -n "$CLEANUP_DIRS" ]] && rm -rf $CLEANUP_DIRS
  true
}
trap cleanup EXIT

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tsan: configure + build (build-tsan/) =="
  cmake -B build-tsan -S . -DFCSL_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target threadpool_test parallel_engine_test runtime_test intern_test \
    --target por_independence_test por_dynamic_test symmetry_test \
    --target service_test engine_test simulate_test

  echo "== tsan: race-checking thread pool, parallel engine, runtime, arena, service =="
  # TSan aborts the process on the first data race; a clean exit is the
  # pass condition.
  ./build-tsan/tests/threadpool_test
  ./build-tsan/tests/parallel_engine_test
  ./build-tsan/tests/runtime_test
  ./build-tsan/tests/intern_test
  ./build-tsan/tests/por_independence_test
  ./build-tsan/tests/por_dynamic_test
  ./build-tsan/tests/symmetry_test
  ./build-tsan/tests/service_test
  ./build-tsan/tests/engine_test
  ./build-tsan/tests/simulate_test
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== asan+ubsan: configure + build (build-asan/) =="
  cmake -B build-asan -S . -DFCSL_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" >/dev/null
  cmake --build build-asan -j "$(nproc)" --target intern_test codec_test \
    --target dist_test cache_test service_test symmetry_test engine_test \
    --target parallel_engine_test por_dynamic_test trace_test simulate_test \
    --target soundness_test pcm_test heap_test histories_test \
    --target flatcombiner_test

  echo "== asan+ubsan (assertions on): checking intern arena, computed tables, codec, dist wire, cache, service, symmetry, engine, soundness =="
  ./build-asan/tests/intern_test
  ./build-asan/tests/pcm_test
  ./build-asan/tests/heap_test
  ./build-asan/tests/histories_test
  ./build-asan/tests/flatcombiner_test
  ./build-asan/tests/codec_test
  ./build-asan/tests/dist_test
  ./build-asan/tests/cache_test
  ./build-asan/tests/service_test
  ./build-asan/tests/symmetry_test
  ./build-asan/tests/engine_test
  ./build-asan/tests/parallel_engine_test
  ./build-asan/tests/por_dynamic_test
  ./build-asan/tests/trace_test
  ./build-asan/tests/simulate_test
  ./build-asan/tests/soundness_test
fi

echo "== jobs: 4 jobs vs 1 over every session (plain, POR+symmetry, POR, symmetry) =="
cmake --build build -j "$(nproc)" --target fcsl-verify
Normalize='s/[0-9]+\.[0-9]+//g; s/ +/ /g; s/-+/-/g; s/ +$//'
for Modes in "off off" "on on" "on off" "off on"; do
  read -r Por Sym <<< "$Modes"
  for Jobs in 1 4; do
    ./build/tools/fcsl-verify --cache=off --por="$Por" --symmetry="$Sym" \
      --jobs "$Jobs" verify all \
      | sed -E "$Normalize" > "build/verify-jobs-$Por-$Sym-$Jobs.txt"
  done
  diff "build/verify-jobs-$Por-$Sym-1.txt" "build/verify-jobs-$Por-$Sym-4.txt" \
    || { echo "jobs=4 diverged from jobs=1 (por=$Por symmetry=$Sym)" >&2
         exit 1; }
  echo "   por=$Por symmetry=$Sym: jobs=4 identical to jobs=1"
done

if [[ "$RUN_POR" == 1 ]]; then
  echo "== por: soundness oracle over every Table-1 session =="
  cmake --build build -j "$(nproc)" --target fcsl-verify
  # The oracle explores each state space twice — plain engine and
  # reduced — and any divergence in Safe verdicts, exhaustion, or
  # terminal states fails the session. Run serial and parallel.
  for Jobs in 1 4; do
    ./build/tools/fcsl-verify --jobs "$Jobs" --por=check verify all
  done

  echo "== por: oracle composed with symmetry reduction =="
  # The oracle must also hold with the reduced run canonicalized; at 4
  # jobs the workers share one exploration's env rows.
  for Jobs in 1 4; do
    ./build/tools/fcsl-verify --jobs "$Jobs" --por=check --symmetry=on \
      verify all
  done
fi

if [[ "$RUN_SYMMETRY" == 1 ]]; then
  echo "== symmetry: canonical vs full exploration over every session =="
  cmake --build build -j "$(nproc)" --target fcsl-verify
  # Verdicts and obligation counts must agree between canonical and full
  # exploration; the per-category *check* counts legitimately shrink
  # (fewer configs visited is the whole point), so the third numeric
  # column is stripped along with timings. The oracle — which explores
  # each state space on the plain engine and reduced, and compares
  # verdicts, exhaustion, and terminal sets — must pass composed with
  # POR.
  NormalizeSym='s/[0-9]+\.[0-9]+//g; s/^([A-Za-z]+ +[0-9]+ +)[0-9]+/\1/; s/ +/ /g; s/-+/-/g; s/ +$//'
  ./build/tools/fcsl-verify --symmetry=off verify all \
    | sed -E "$NormalizeSym" > build/verify-sym-off.txt
  ./build/tools/fcsl-verify --symmetry=on verify all \
    | sed -E "$NormalizeSym" > build/verify-sym-on.txt
  diff build/verify-sym-off.txt build/verify-sym-on.txt \
    || { echo "symmetry=on diverged from symmetry=off" >&2; exit 1; }
  echo "   symmetry=on verdicts/obligations identical to symmetry=off"
  ./build/tools/fcsl-verify --symmetry=check verify all
  ./build/tools/fcsl-verify --symmetry=check --por=on verify all
  # Both check modes in one run: one oracle per exploration, the plain
  # engine against POR and symmetry composed.
  ./build/tools/fcsl-verify --symmetry=check --por=check verify all
fi

if [[ "$RUN_CACHE" == 1 ]]; then
  echo "== cache: cold vs warm obligation store over every session =="
  cmake --build build -j "$(nproc)" --target fcsl-verify
  CacheDir="$(mktemp -d)"
  CLEANUP_DIRS="$CLEANUP_DIRS $CacheDir"
  # Cold run populates the store; the warm rerun must replay every
  # obligation verdict bit-identically (timings stripped as usual).
  Normalize='s/[0-9]+\.[0-9]+//g; s/ +/ /g; s/-+/-/g; s/ +$//'
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=rw verify all \
    | sed -E "$Normalize" > build/verify-cache-cold.txt
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=rw verify all \
    | sed -E "$Normalize" > build/verify-cache-warm.txt
  diff build/verify-cache-cold.txt build/verify-cache-warm.txt \
    || { echo "warm cache run diverged from cold run" >&2; exit 1; }
  # The warm rerun must be pure hits: N > 0, zero misses.
  CacheLine=$(FCSL_CACHE_DIR="$CacheDir" \
    ./build/tools/fcsl-verify --cache=rw --stats verify all \
    | grep '^obligation cache')
  echo "   $CacheLine"
  [[ "$CacheLine" =~ \(rw\):\ ([0-9]+)\ hits,\ 0\ misses ]] \
    || { echo "warm run was not 100% cache hits: $CacheLine" >&2; exit 1; }
  [[ "${BASH_REMATCH[1]}" -gt 0 ]] \
    || { echo "warm run replayed zero obligations" >&2; exit 1; }
  echo "   warm run replayed all ${BASH_REMATCH[1]} obligations from the store"
  # Check mode re-discharges every hit and fails loudly on divergence —
  # alone, then composed with POR (spelled dynamic) + symmetry (warming the store
  # under the composed flag fingerprint first, since records are keyed by
  # the resolved engine flags).
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=check verify all
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=rw \
    --por=dynamic --symmetry=on verify all >/dev/null
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=check \
    --por=dynamic --symmetry=on verify all
  echo "   cache=check clean, alone and under por=dynamic symmetry=on"
fi

if [[ "$RUN_SERVICE" == 1 ]]; then
  echo "== service: daemon-served reports vs direct runs, cold and warm =="
  cmake --build build -j "$(nproc)" --target fcsl-verify fcsl-serve fcsl-client
  ServiceDir="$(mktemp -d)"
  CLEANUP_DIRS="$CLEANUP_DIRS $ServiceDir"
  Normalize='s/[0-9]+\.[0-9]+//g; s/ +/ /g; s/-+/-/g; s/ +$//'
  # The oracle: a direct in-process run under the same flags.
  ./build/tools/fcsl-verify --por=dynamic --symmetry=on verify all \
    | sed -E "$Normalize" > build/verify-service-direct.txt
  FCSL_CACHE_DIR="$ServiceDir" ./build/tools/fcsl-serve \
    --socket "$ServiceDir/daemon.sock" --cache rw &
  ServePid=$!
  for _ in $(seq 1 100); do
    [[ -S "$ServiceDir/daemon.sock" ]] && break
    sleep 0.1
  done
  [[ -S "$ServiceDir/daemon.sock" ]] \
    || { echo "daemon socket never appeared" >&2; exit 1; }
  Client="./build/tools/fcsl-client --socket $ServiceDir/daemon.sock"
  # Cold: every session goes through the engine, populating the store.
  $Client --por dynamic --symmetry on --cache rw --expect pass verify all \
    | sed -E "$Normalize" > build/verify-service-cold.txt
  diff build/verify-service-direct.txt build/verify-service-cold.txt \
    || { echo "daemon cold reports diverged from direct runs" >&2; exit 1; }
  # Warm: the identical resubmits must be answered from the in-memory
  # store index without the engine — and print the same reports.
  $Client --por dynamic --symmetry on --cache rw --expect pass verify all \
    | sed -E "$Normalize" > build/verify-service-warm.txt
  diff build/verify-service-direct.txt build/verify-service-warm.txt \
    || { echo "daemon warm reports diverged from direct runs" >&2; exit 1; }
  $Client stats > build/verify-service-stats.txt
  Sessions=$(awk '$1 == "sessions_run" {print $2}' build/verify-service-stats.txt)
  Cached=$(awk '$1 == "served_from_cache" {print $2}' build/verify-service-stats.txt)
  [[ -n "$Sessions" && "$Sessions" -gt 0 ]] \
    || { echo "daemon ran no engine sessions?" >&2; exit 1; }
  [[ "$Cached" == "$Sessions" ]] \
    || { echo "warm pass was not 100% fast-path serves" \
           "($Cached cached vs $Sessions engine runs)" >&2; exit 1; }
  echo "   cold and warm daemon reports identical to direct runs;" \
       "warm pass served all $Cached sessions from the store"
  $Client shutdown || { echo "daemon did not ack shutdown" >&2; exit 1; }
  wait "$ServePid" \
    || { echo "daemon exited uncleanly after shutdown" >&2; exit 1; }
  ServePid=""
  echo "   daemon drained and exited cleanly"
fi

echo "== perfbench: self-test against this tree =="
python3 perfbench/run.py --self-test

echo "== verify.sh: all stages passed =="
