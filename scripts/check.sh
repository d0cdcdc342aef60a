#!/usr/bin/env bash
# The one definition of the repository's gates, in named stages; CI only
# calls this script. Usage: scripts/check.sh [stage...] [cmake-arg...]
#   Stages (one stage_* function each, below): format unit determinism
#   toolchain gateway docs tsan. With no stage, every stage but tsan
#   runs; naming format makes a missing clang-format an error, not a
#   skip. Arguments starting with "-" go to every cmake configure step,
#   and so does a word that follows one and names no stage ("-G Ninja").
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"
built=false

# Configures and builds build/ once per invocation; every stage that runs
# a binary calls this first, so any stage can be run on its own.
build_tree() {
  if [ "$built" = false ]; then
    cmake -B build -S . ${cmake_args[@]+"${cmake_args[@]}"}
    cmake --build build -j "$jobs"
    built=true
  fi
}

# Runs agilla_sim twice, with the arguments after $4 plus the variant
# words $3 and then $4, and requires byte-identical JSON once the echoed
# knob line $2 (the one intended difference; "-" for none) is dropped.
same_json() {
  local name="$1" knob="$2" a="$3" b="$4"
  shift 4
  ./build/agilla_sim "$@" $a --out "build/$name.a.json" > /dev/null
  ./build/agilla_sim "$@" $b --out "build/$name.b.json" > /dev/null
  cmp <(sed "/\"$knob\":/d" "build/$name.a.json") \
    <(sed "/\"$knob\":/d" "build/$name.b.json")
  echo "$name: byte-identical ($a vs $b)"
}

# Starts agilla_gatewayd from build dir $1 on an ephemeral port, drives it
# with $2 socket clients, then drains it with SIGTERM. Leaves the
# loadgen metrics in $1/loadgen_tcp.json and the daemon's in
# $1/gatewayd_metrics.json.
gateway_tcp_round_trip() {
  local dir="$1" clients="$2"
  rm -f "$dir/gatewayd_port" "$dir/gatewayd_metrics.json"
  # Background ONLY the daemon command ($! must be the daemon, not a
  # compound-statement subshell, or the TERM below orphans it).
  "$dir/agilla_gatewayd" --grid 8x8 --seed 7 --listen 127.0.0.1:0 \
    --port-file "$dir/gatewayd_port" --metrics "$dir/gatewayd_metrics.json" &
  local pid=$!
  for _ in $(seq 1 100); do
    [ -s "$dir/gatewayd_port" ] && break
    sleep 0.1
  done
  [ -s "$dir/gatewayd_port" ] || {
    echo "gatewayd never published its port"; kill "$pid"; exit 1
  }
  "$dir/agilla_loadgen" --connect "127.0.0.1:$(cat "$dir/gatewayd_port")" \
    --clients "$clients" --smoke --out "$dir/loadgen_tcp.json" > /dev/null
  kill -TERM "$pid"
  wait "$pid"
  grep -q '"protocol_errors": 0' "$dir/loadgen_tcp.json"
  # Graceful TERM: the daemon drains sessions and flushes its metrics.
  [ -s "$dir/gatewayd_metrics.json" ]
  grep -q '"sessions_opened"' "$dir/gatewayd_metrics.json"
}

stage_format() {
  echo "== format: clang-format (dry run) =="
  if ! command -v clang-format > /dev/null 2>&1; then
    if [ "$explicit_stages" -gt 0 ]; then
      echo "clang-format not found; the format stage cannot run" >&2
      exit 1
    fi
    echo "clang-format not found; skipping format check"
    return
  fi
  git ls-files '*.h' '*.cpp' | xargs clang-format --dry-run -Werror
}

stage_unit() {
  echo "== unit: configure, build, ctest =="
  build_tree
  (cd build && ctest --output-on-failure -j "$jobs")

  echo "== unit: examples build-and-run =="
  # Every examples/ binary must run to completion against the embedding
  # API (they are the API's reference users; compiling is not enough).
  for example in quickstart fire_tracking intruder_tracking \
                 habitat_multiapp search_rescue; do
    ./build/"$example" > /dev/null
    echo "example $example ran clean"
  done

  echo "== unit: VM dispatch smoke (threaded not slower than switch) =="
  # Runs both dispatch modes on every throughput workload and fails if the
  # pre-decoded threaded dispatch is ever slower than the reference switch
  # interpreter (DESIGN.md "VM dispatch").
  ./build/bench_vm_throughput --smoke
}

stage_determinism() {
  build_tree
  echo "== determinism: sweeps byte-identical across threads, shards, modes =="
  same_json harness - "--threads 2" "--threads 1" --trials 4 --grid 8x8
  # Node deaths, battery draws and churn bookkeeping included.
  same_json energy - "--threads 8" "--threads 1" \
    --scenario network_lifetime --grid 6x6 --trials 2 --duration 80 \
    --param battery_mj=1200
  same_json routing - "--threads 8" "--threads 1" \
    --scenario report_collection --grid 4x4 --trials 2 --duration 60 \
    --param battery_mj=800 --param duty_cycle=0.2 --param adaptive_lpl=1 \
    --axis route_policy=0,1
  # The sharded engine is byte-identical to the serial one. At 64x64
  # every shard owns real traffic and churn crosses strip borders.
  same_json shards_16x16 sim_shards "--param sim_shards=1" \
    "--param sim_shards=4" --scenario fire_tracking --grid 16x16 \
    --trials 2 --duration 30 --threads 1
  same_json shards_64x64 sim_shards "--param sim_shards=1" \
    "--param sim_shards=4" --scenario fire_tracking --grid 64x64 \
    --trials 1 --duration 30 --threads 1
  same_json shards_threads - "--threads 8" "--threads 1" \
    --scenario fire_tracking --grid 16x16 --trials 4 --duration 30 \
    --param sim_shards=2
  same_json dispatch vm_dispatch "--param vm_dispatch=0" \
    "--param vm_dispatch=1" --scenario fire_tracking --grid 4x4 \
    --trials 2 --duration 40
  ./build/bench_scale --smoke > /dev/null
}

stage_toolchain() {
  build_tree
  echo "== toolchain: corpus round trip + conformance grade =="
  # Every corpus program must survive assemble -> disassemble -> reassemble
  # byte-identically, and the grader must reproduce every .expect dump.
  ./build/agilla_as --check tests/agents/*.aga
  ./build/agilla_grade tests/agents
  # The xfail program's deliberately wrong .expect must make the grader
  # exit non-zero (with a diff on stdout) when the inversion is disabled:
  # this proves a real regression cannot slip through as a silent pass.
  if ./build/agilla_grade --strict tests/agents/broken_expect_xfail.aga \
      > build/grade_broken.txt 2>&1; then
    echo "grader failed to flag a broken .expect"; exit 1
  fi
  grep -q '^  - ' build/grade_broken.txt
  grep -q '^  + ' build/grade_broken.txt
  echo "grader corpus green; broken .expect flagged with a diff"
}

stage_gateway() {
  build_tree
  echo "== gateway: loopback determinism (64 clients, 2 runs) =="
  # The loadgen exits non-zero on any protocol error, failed client, or
  # failed reconnect; two identical-seed runs must produce byte-identical
  # metrics (per-session transcript hashes included).
  for run in a b; do
    ./build/agilla_loadgen --loopback --grid 8x8 --seed 7 --clients 64 \
      --smoke --out "build/loadgen_$run.json" > /dev/null
  done
  cmp build/loadgen_a.json build/loadgen_b.json
  grep -q '"protocol_errors": 0' build/loadgen_a.json

  echo "== gateway: 16-bit remote request ids wrap onto pending ones =="
  # 1,000 sessions x 256 ops issue more than 65,536 remote ops within one
  # request's lifetime, so request ids wrap while earlier ones are still
  # pending; every session must still finish (the loadgen exits non-zero
  # if one hangs or fails).
  ./build/agilla_loadgen --loopback --grid 16x16 --clients 1000 --ops 256 \
    --out build/loadgen_ids.json > /dev/null

  echo "== gateway: live TCP daemon round trip =="
  gateway_tcp_round_trip build 64
  echo "gateway gates clean; daemon drained on SIGTERM"
}

stage_docs() {
  build_tree
  echo "== docs: MANUAL.md vs agilla_sim listings =="
  # The two generated blocks in docs/MANUAL.md must match the binary's
  # --list-scenarios / --list-knobs output byte for byte.
  local listing
  for listing in scenarios knobs; do
    diff -u \
      <(awk -v marker="--list-$listing" '
          $0 ~ "BEGIN generated: agilla_sim " marker { grab = 1; next }
          grab && /^```/ { if (inside) { exit } inside = 1; next }
          grab && inside { print }
        ' docs/MANUAL.md) \
      <(./build/agilla_sim --list-"$listing") \
      || { echo "docs/MANUAL.md $listing table is stale — paste in the output of: agilla_sim --list-$listing"; exit 1; }
  done
}

stage_tsan() {
  echo "== tsan: ThreadSanitizer build (build-tsan) =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAGILLA_TSAN=ON ${cmake_args[@]+"${cmake_args[@]}"}
  cmake --build build-tsan -j "$jobs" --target test_shard_engine test_energy \
    agilla_sim agilla_gatewayd agilla_loadgen

  echo "== tsan: shard engine =="
  # The worker pool, outbox exchange and barrier protocol are the only
  # cross-thread machinery of the sim; drive them under the race
  # detector. Churn + energy exercises kill/revive and the settle tick
  # across shard borders.
  ./build-tsan/test_shard_engine
  ./build-tsan/test_energy
  ./build-tsan/agilla_sim --scenario network_lifetime --grid 16x16 \
    --trials 1 --duration 60 --threads 1 --param sim_shards=4 \
    --out /dev/null > /dev/null

  echo "== tsan: gateway (TCP accept thread vs sim thread) =="
  # The TCP transport's I/O thread hands connects and bytes to the sim
  # thread through the event queue; socket clients hammer that seam.
  # Loopback is single-threaded but runs too, as the baseline.
  ./build-tsan/agilla_loadgen --loopback --grid 8x8 --clients 32 --smoke \
    --out /dev/null > /dev/null
  gateway_tcp_round_trip build-tsan 32
}

stages=()
cmake_args=()
previous=""
for arg in "$@"; do
  if declare -F "stage_$arg" > /dev/null; then
    stages+=("$arg")
  elif [[ "$arg" == -* || "$previous" == -* ]]; then
    cmake_args+=("$arg")
  else
    echo "unknown stage '$arg'" >&2
    exit 2
  fi
  previous="$arg"
done
explicit_stages=${#stages[@]}
if [ "$explicit_stages" -eq 0 ]; then
  stages=(format unit determinism toolchain gateway docs)
fi
for stage in "${stages[@]}"; do
  "stage_$stage"
done
echo "== check.sh: ${stages[*]} passed =="
