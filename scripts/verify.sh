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
#      -DFCSL_SANITIZE=address,undefined; the intern-arena, codec and
#      symmetry tests run under it, along with the dist wire, cache and
#      service tests, since those layers do the pointer-identity, raw-byte
#      and pointer-renaming manipulation where memory bugs would hide.
#      The engine, parallel-engine, dynamic-POR, simulate and trace tests
#      run too:
#      configurations are handles into hash-cons tables each exploration
#      frees with its visited set, edited copy-on-write, and failure
#      traces are rendered through parent nodes, so a handle that outlives
#      its table or a stale private copy would show up there.
#      The decoders must stay fail-soft: malformed frames, including the
#      retired tag-2 frontier batch, are rejected and never crash.
#   4. Jobs: the plain engine's report (fcsl-verify --cache=off verify
#      all, every reduction off) at --jobs 4 must equal the --jobs 1
#      report, timings stripped. The workers share one exploration's
#      hash-cons tables, thread-step memo and env rows, and a row or memo
#      entry served to the wrong worker would show up as a changed
#      counter or terminal.
#   5. POR oracle: fcsl-verify --por=check runs every Table-1 session
#      through the soundness oracle — each exploration runs once on the
#      plain engine (POR off, symmetry off) and once reduced — and fails
#      on any divergence in verdicts or terminal states, at 1 and 4 jobs.
#      The dynamic mode (--por=check-dynamic: ample sets licensed by
#      observed footprints and the env-future closure) gets the same
#      oracle, alone, composed with symmetry reduction (one oracle checks
#      both reductions together, also at 4 jobs, where the workers share
#      the env rows their closure walks read), and composed with sharding.
#   6. Symmetry: fcsl-verify --symmetry=on must report the same verdicts
#      and obligation counts as --symmetry=off (per-config check counts
#      shrink — that is the reduction), and --symmetry=check — the same
#      oracle with the canonical space as the reduced run, comparing
#      terminals modulo fresh-pointer renaming — must pass alone,
#      composed with static and dynamic POR (--por=check-dynamic: still
#      two explorations, the plain engine against both reductions), and
#      composed with sharding.
#   7. Shards: fcsl-verify --shards=2 verify all must print the same
#      report as --shards=1 (modulo timings), with POR off and on — the
#      multi-process partitioned exploration (src/dist/) is bit-identical
#      to the in-process engine. --shards=3 with POR off must match too:
#      there one owner receives from two senders, so duplicate configs
#      reach it along two paths and only its own dedup stands between
#      them and the counters (the hub relays every config). --jobs 2
#      --shards=2 must match --shards=1 as well: there each shard runs a
#      two-worker team whose worker 0 also pumps the transport, the one
#      worker loop's multi-worker shard path. Frontier frames between
#      shards use the dictionary-streamed protocol, the only wire
#      encoding.
#   8. Cache: a cold run against an empty obligation store and a warm
#      rerun must print byte-identical reports (modulo timings), the warm
#      run must be 100% hits, and --cache=check — which re-discharges
#      every hit and compares the stored verdict against the fresh one —
#      must pass alone and composed with POR, symmetry, and sharding.
#   9. Service: fcsl-serve on a temp socket serves every Table-1 session
#      to fcsl-client cold and warm under --por=dynamic --symmetry=on;
#      both passes must print the same report as a direct fcsl-verify run
#      (modulo timings), the warm pass must be 100% fast-path serves with
#      zero additional engine sessions (asserted from the daemon's stats
#      frame), and a client Shutdown must exit the daemon cleanly.
#
# Usage: scripts/verify.sh [--no-tsan] [--no-asan] [--no-por]
#                          [--no-symmetry] [--no-shards] [--no-cache]
#                          [--no-service]
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TSAN=1
RUN_ASAN=1
RUN_POR=1
RUN_SYMMETRY=1
RUN_SHARDS=1
RUN_CACHE=1
RUN_SERVICE=1
for Arg in "$@"; do
  case "$Arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --no-por) RUN_POR=0 ;;
    --no-symmetry) RUN_SYMMETRY=0 ;;
    --no-shards) RUN_SHARDS=0 ;;
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
  cmake -B build-asan -S . -DFCSL_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$(nproc)" --target intern_test codec_test \
    --target dist_test cache_test service_test symmetry_test engine_test \
    --target parallel_engine_test por_dynamic_test trace_test simulate_test

  echo "== asan+ubsan: checking intern arena, codec, dist wire, cache, service, symmetry, engine =="
  ./build-asan/tests/intern_test
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
fi

echo "== jobs: plain engine at 4 jobs vs 1 over every session =="
cmake --build build -j "$(nproc)" --target fcsl-verify
Normalize='s/[0-9]+\.[0-9]+//g; s/ +/ /g; s/-+/-/g; s/ +$//'
for Jobs in 1 4; do
  ./build/tools/fcsl-verify --cache=off --por=off --symmetry=off \
    --jobs "$Jobs" verify all \
    | sed -E "$Normalize" > "build/verify-jobs-$Jobs.txt"
done
diff build/verify-jobs-1.txt build/verify-jobs-4.txt \
  || { echo "jobs=4 diverged from jobs=1 (plain engine)" >&2; exit 1; }
echo "   plain engine: jobs=4 identical to jobs=1"

if [[ "$RUN_POR" == 1 ]]; then
  echo "== por: soundness oracle over every Table-1 session =="
  cmake --build build -j "$(nproc)" --target fcsl-verify
  # The oracle explores each state space twice — plain engine and
  # reduced — and any divergence in Safe verdicts, exhaustion, or
  # terminal states fails the session. Run serial and parallel.
  for Jobs in 1 4; do
    ./build/tools/fcsl-verify --jobs "$Jobs" --por=check verify all
  done

  echo "== por: dynamic (observed-footprint) oracle =="
  # check-dynamic runs the plain engine vs the dynamically-reduced
  # exploration and fails on any divergence; it must also hold composed
  # with symmetry reduction and with the multi-process sharded engine.
  for Jobs in 1 4; do
    ./build/tools/fcsl-verify --jobs "$Jobs" --por=check-dynamic verify all
  done
  ./build/tools/fcsl-verify --por=check-dynamic --symmetry=on verify all
  # Four workers share one exploration's env rows and closure memo.
  ./build/tools/fcsl-verify --jobs 4 --por=check-dynamic --symmetry=on \
    verify all
  ./build/tools/fcsl-verify --por=check-dynamic --shards=2 verify all
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
  # POR and with sharding.
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
  # engine against dynamic POR and symmetry composed.
  ./build/tools/fcsl-verify --symmetry=check --por=check-dynamic verify all
  # Composed with the multi-process engine: canonical fingerprints must
  # partition identically across shards.
  ./build/tools/fcsl-verify --symmetry=check --shards=2 verify all
  ./build/tools/fcsl-verify --symmetry=check --por=check-dynamic --shards=2 \
    verify all
fi

if [[ "$RUN_SHARDS" == 1 ]]; then
  echo "== shards: sharded vs in-process (por off/on at 2 shards, off at 3, 2 jobs at 2) =="
  cmake --build build -j "$(nproc)" --target fcsl-verify
  # The report must be byte-identical once timings (and the column
  # padding they widen) are stripped.
  Normalize='s/[0-9]+\.[0-9]+//g; s/ +/ /g; s/-+/-/g; s/ +$//'
  for Por in off on; do
    ./build/tools/fcsl-verify --por="$Por" --shards=1 verify all \
      | sed -E "$Normalize" > build/verify-shards-1.txt
    ./build/tools/fcsl-verify --por="$Por" --shards=2 verify all \
      | sed -E "$Normalize" > build/verify-shards-2.txt
    diff build/verify-shards-1.txt build/verify-shards-2.txt \
      || { echo "shards=2 diverged from shards=1 (por=$Por)" >&2; exit 1; }
    echo "   por=$Por: shards=2 identical to shards=1"
  done
  # Three shards: an owner with two senders gets the duplicates both of
  # them ship, and must count each as the in-process engine does.
  ./build/tools/fcsl-verify --por=off --shards=1 verify all \
    | sed -E "$Normalize" > build/verify-shards-1.txt
  ./build/tools/fcsl-verify --por=off --shards=3 verify all \
    | sed -E "$Normalize" > build/verify-shards-3.txt
  diff build/verify-shards-1.txt build/verify-shards-3.txt \
    || { echo "shards=3 diverged from shards=1 (por=off)" >&2; exit 1; }
  echo "   por=off: shards=3 identical to shards=1"
  # Two workers per shard: worker 0 pumps the transport between
  # expansions while worker 1 explores beside it.
  ./build/tools/fcsl-verify --por=off --jobs 2 --shards=2 verify all \
    | sed -E "$Normalize" > build/verify-shards-2j.txt
  diff build/verify-shards-1.txt build/verify-shards-2j.txt \
    || { echo "jobs=2 shards=2 diverged from shards=1" >&2; exit 1; }
  echo "   por=off: jobs=2 shards=2 identical to shards=1"
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
  # alone, then composed with dynamic POR + symmetry + sharding (warming
  # the store under the composed flag fingerprint first, since records
  # are keyed by the resolved engine flags).
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=check verify all
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=rw \
    --por=dynamic --symmetry=on --shards=2 verify all >/dev/null
  FCSL_CACHE_DIR="$CacheDir" ./build/tools/fcsl-verify --cache=check \
    --por=dynamic --symmetry=on --shards=2 verify all
  echo "   cache=check clean, alone and under por=dynamic symmetry=on shards=2"
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

echo "== verify.sh: all stages passed =="
