#!/bin/sh
# Tier-1 verification: build and run the full test suite in the normal
# (RelWithDebInfo) configuration and again under ASan+UBSan
# (-DRSAFE_SANITIZE=ON). Run from the repository root:
#
#   tools/check.sh            # release + asan + tsan test configurations
#   tools/check.sh release    # normal configuration only
#   tools/check.sh sanitize   # ASan+UBSan configuration only
#   tools/check.sh tsan       # ThreadSanitizer configuration only, then
#                             # the one-log stream tests, the AR over a
#                             # growing log, every ConcurrentPipeline and
#                             # FleetShip test, the fleet
#                             # Drain/Abandon/Tenants tests and the
#                             # health-plane tests (the monitor thread
#                             # writes the flight recorder that AR
#                             # workers also write) repeated
#                             # until-fail:20 under TSan.
#   tools/check.sh tidy       # clang-tidy over src/ (skips if not installed)
#   tools/check.sh fuzz       # libFuzzer smoke over tests/corpus (clang);
#                             # falls back to corpus replay under gcc.
#                             # RSAFE_FUZZ_RUNS bounds the run (default 50000).
#   tools/check.sh trace      # observability smoke: run rsafe-report over
#                             # the attack mix + golden log, validate the
#                             # Chrome trace schema, and write the trace,
#                             # metrics and Prometheus artifacts.
#   tools/check.sh bench      # perf gate: bench_micro --gate against the
#                             # checked-in BENCH_micro.json baseline
#                             # (TB over single-stepped interpreter
#                             # speedup ratios, each the median of 15
#                             # in-process repetitions; a gated key
#                             # missing from the baseline fails;
#                             # RSAFE_BENCH_GATE_TOLERANCE overrides 10%).
#   tools/check.sh fleet      # multi-tenant gate: test_fleet (determinism,
#                             # shutdown, metric namespacing), every
#                             # Abandon/Drain/FairSharePool test repeated
#                             # until-fail:20, plus
#                             # bench_fleet --gate against the committed
#                             # BENCH_fleet.json (aggregate throughput and
#                             # benign-tenant p99 regression thresholds;
#                             # RSAFE_BENCH_GATE_TOLERANCE overrides 10%).
#   tools/check.sh ckpt       # checkpoint gate: test_mem (the page store's
#                             # dirty tracking and epochs), test_checkpoint
#                             # (take and restore), test_ckpt_store (dedup,
#                             # RLE, restore, wire images and streams)
#                             # plus bench_ckpt --gate against the
#                             # committed BENCH_ckpt.json (>=4x byte and
#                             # image reductions, restore-latency ratio).
#   tools/check.sh health     # health-plane smoke: test_health, then an
#                             # attack-mix fleet with the SLO monitor and
#                             # telemetry endpoint live — /healthz must
#                             # flag the attack tenant, the flight-box
#                             # dump must round-trip through
#                             # rsafe-report --flight, and the obs
#                             # overhead gate must hold with the plane on.
#   tools/check.sh paper      # re-record tests/paper/*.txt, the tables
#                             # the nine paper binaries print, which the
#                             # paper_shape ctest compares byte for byte.
#                             # Only for a deliberate cost-model change;
#                             # say so in CHANGES.md when it moves them.
#   tools/check.sh e2e        # end-to-end correctness gate: run
#                             # e2ebench/run.py over every workload for 2 s;
#                             # every framework and fleet run must match its
#                             # kSerial reference ("correct": true,
#                             # "failed": 0 in the merged JSON).
set -eu

cd "$(dirname "$0")/.."
mode="${1:-all}"

run_config() {
    dir="$1"
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$(nproc)"
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

run_tsan() {
    run_config build-tsan -DRSAFE_SANITIZE=thread
    # A race between the recorder appending and the CR or an AR worker
    # reading the same log in place, between the health monitor thread
    # and an AR worker writing the flight recorder, or a lost wakeup,
    # shows up as a rare flake: repeat the streaming, fleet, shutdown and
    # health-plane tests so a recurrence fails here.
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
        -R 'LogStream|StreamedSession|ArOverAGrowingLog|ConcurrentPipeline|Fleet\.(Drain|Abandon|Tenants)|FleetShip|FleetHealth|FrameworkHealth|HealthMonitor' \
        --repeat until-fail:20
}

run_tidy() {
    # clang-tidy is optional tooling: gate on its presence so the tier-1
    # flow works on machines without it.
    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "check.sh: clang-tidy not installed, skipping tidy mode"
        return 0
    fi
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    if command -v run-clang-tidy > /dev/null 2>&1; then
        run-clang-tidy -p build -quiet "src/.*\.cc"
    else
        find src -name '*.cc' -print0 |
            xargs -0 -n 1 -P "$(nproc)" clang-tidy -p build --quiet
    fi
}

run_fuzz() {
    runs="${RSAFE_FUZZ_RUNS:-50000}"
    # libFuzzer instrumentation is Clang-only. Under any other compiler
    # the same binaries are built with a standalone driver that replays
    # the corpus once — still a regression gate, just not exploratory.
    if ${CXX:-c++} --version 2> /dev/null | grep -q clang; then
        cmake -B build-fuzz -S . -DRSAFE_FUZZ=ON -DRSAFE_SANITIZE=ON
    else
        echo "check.sh: compiler is not clang; corpus replay only"
        runs=0
        cmake -B build-fuzz -S .
    fi
    cmake --build build-fuzz -j "$(nproc)" \
        --target fuzz_wire --target fuzz_log --target fuzz_ckpt_delta \
        --target fuzz_flight --target fuzz_forensic --target fuzz_policy
    for target in wire log ckpt_delta flight forensic policy; do
        corpus="$target"
        # Checkpoint seeds live under corpus/delta.
        [ "$target" = ckpt_delta ] && corpus=delta
        echo "check.sh: fuzz_$target over tests/corpus/$corpus" \
             "(runs=$runs)"
        "./build-fuzz/tools/fuzz_$target" -runs="$runs" \
            "tests/corpus/$corpus"
    done
}

run_trace() {
    # The observability gate: the attack-mix pipeline must produce a
    # schema-valid Perfetto-loadable trace (flow arrows included),
    # metrics in both formats, and forensic reports — live and over the
    # checked-in golden attack recording.
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target rsafe-report
    ./build/tools/rsafe-report --attack-mix --check-trace \
        --trace trace_attack_mix.json \
        --metrics metrics_attack_mix.json \
        --prom metrics_attack_mix.prom > forensics_attack_mix.txt
    ./build/tools/rsafe-report --log tests/corpus/golden/attack.rnrlog \
        --attack-mix --check-trace \
        --trace trace_golden_attack.json --json > forensics_golden.json
    grep -q k_vulnerable forensics_attack_mix.txt
    grep -q k_vulnerable forensics_golden.json
    echo "check.sh: trace schema + forensic artifacts ok"
}

run_bench() {
    # The perf gate compares freshly measured machine-independent
    # speedup ratios (medians of in-process repetitions) against the
    # committed baseline; a Release build keeps the measurement honest.
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target bench_micro
    (cd build-rel && ./bench/bench_micro --gate ../BENCH_micro.json)
    echo "check.sh: bench gate ok (build-rel/BENCH_micro.json measured)"
}

run_fleet() {
    # The multi-tenant gate: the fleet unit suite (A/B determinism vs the
    # single framework, drain/abandon shutdown, per-tenant metric
    # namespacing) plus the scheduling benchmark measured fresh and
    # compared against the committed baseline. Release keeps the real
    # fleet run (wall_ms, pool counters) honest; the gated figures
    # themselves are simulated cycles and machine-independent.
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target test_fleet \
        --target test_work_pool --target test_ckpt_store \
        --target test_log_stream --target bench_fleet
    ./build-rel/tests/test_fleet
    # Shutdown races (a discard or abandon that fails to wake a waiter)
    # surface as flakes, not as deterministic failures: repeat every
    # shutdown test so a recurrence fails here.
    ctest --test-dir build-rel --output-on-failure -j "$(nproc)" \
        -R 'Abandon|Drain|FairSharePool' --repeat until-fail:20
    # Run inside build-rel so the freshly measured JSON lands there
    # instead of clobbering the committed baseline it is gated against.
    (cd build-rel &&
         ./bench/bench_fleet --gate --reference=../BENCH_fleet.json)
    echo "check.sh: fleet gate ok (build-rel/BENCH_fleet.json measured)"
}

run_ckpt() {
    # The checkpoint gate: the page store both RAM and disk live in
    # (test_mem: dirty tracking, epochs, the untouched rule, content
    # hash), checkpoint take and restore (test_checkpoint), and the
    # ckpt_store suite (dedup refcount lifecycle, RLE, restore into both
    # stores, AR-boots-from-wire-image equivalence, streams), plus the
    # storage benchmark measured fresh and compared against the
    # committed baseline. The byte/image reductions are deterministic
    # functions of the log and carry hard >=4x floors; only the
    # restore-latency ratio is wall-clock (Release keeps it honest).
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-rel -j "$(nproc)" --target test_mem \
        --target test_checkpoint --target test_ckpt_store \
        --target bench_ckpt
    ./build-rel/tests/test_mem
    ./build-rel/tests/test_checkpoint
    ./build-rel/tests/test_ckpt_store
    # Run inside build-rel so the freshly measured JSON lands there
    # instead of clobbering the committed baseline it is gated against.
    (cd build-rel && ./bench/bench_ckpt --gate ../BENCH_ckpt.json)
    echo "check.sh: ckpt gate ok (build-rel/BENCH_ckpt.json measured)"
}

run_health() {
    # The health-plane smoke: the unit suite first, then a live
    # attack-mix fleet with the monitor and the loopback telemetry
    # endpoint up. The run itself asserts the contract (attack tenant
    # leaves healthy, flight box decodes); here we additionally
    # round-trip the dump through the CLI decoder, check the offline
    # snapshots, and curl the live endpoint when curl exists.
    cmake -B build -S .
    cmake --build build -j "$(nproc)" --target test_health \
        --target rsafe-report --target bench_pipeline
    ./build/tests/test_health
    snapdir="health_smoke"
    rm -rf "$snapdir" && mkdir -p "$snapdir"
    hold_ms=0
    command -v curl > /dev/null 2>&1 && hold_ms=5000
    ./build/tools/rsafe-report --fleet-health \
        --snapshot-dir "$snapdir" --flight-out "$snapdir/flight.bin" \
        --hold-ms "$hold_ms" > "$snapdir/healthz.live.json" &
    smoke_pid=$!
    if [ "$hold_ms" -gt 0 ]; then
        # Curl the endpoint while the post-run linger keeps it up.
        for _ in $(seq 1 100); do
            [ -s "$snapdir/telemetry.port" ] && break
            sleep 0.2
        done
        port="$(cat "$snapdir/telemetry.port" 2> /dev/null || echo 0)"
        if [ "$port" -gt 0 ]; then
            # Retry until the fleet run finishes and the linger begins.
            live_metrics=""
            for _ in $(seq 1 200); do
                if live_metrics="$(curl -fsS --max-time 2 \
                        "http://127.0.0.1:$port/metrics" 2> /dev/null)"; then
                    break
                fi
                kill -0 "$smoke_pid" 2> /dev/null || break
                sleep 0.2
            done
            echo "$live_metrics" | grep -q "rsafe_"
            curl -fsS --max-time 2 "http://127.0.0.1:$port/healthz" |
                grep -q '"attacker"'
            echo "check.sh: live /metrics + /healthz ok (port $port)"
        fi
    fi
    wait "$smoke_pid"
    ./build/tools/rsafe-report --flight "$snapdir/flight.bin" \
        > "$snapdir/flight.txt"
    grep -q "flight box:" "$snapdir/flight.txt"
    grep -q '"attacker"' "$snapdir/healthz.live.json"
    grep -q '"critical"' "$snapdir/healthz.json"
    grep -q "rsafe_" "$snapdir/metrics.prom"
    # The overhead gate, with the health plane riding the on-arm.
    (cd build &&
         ./bench/bench_pipeline --obs-only --obs-gate \
             --reference=../BENCH_obs.json)
    echo "check.sh: health plane smoke ok ($snapdir/ artifacts)"
}

run_paper() {
    # Re-record the paper-shape tables. The binary list lives in
    # tests/paper_shape.cmake; RECORD=ON copies each fresh table over
    # its recorded copy instead of comparing. Review the result with
    # git diff tests/paper.
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
    cmake -DBENCH_DIR="$PWD/build/bench" -DPAPER_DIR="$PWD/tests/paper" \
        -DOUT_DIR="$PWD/build/tests/paper_shape" -DRECORD=ON \
        -P tests/paper_shape.cmake
    echo "check.sh: paper tables re-recorded (tests/paper)"
}

run_e2e() {
    # The benchmark's own correctness checks as a gate: every run through
    # RnrSafeFramework::run or ReplayFleet::run must reproduce the kSerial
    # reference alarm by alarm (cause, is_attack), in both VM state hashes
    # and in the counter snapshot. Wall-time figures are printed, not gated.
    out="$(python3 e2ebench/run.py --workload all --seconds 2)"
    echo "$out"
    echo "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result["correct"] is not True or result["failed"] != 0:
    sys.exit("check.sh: e2ebench: %d of %d checks failed"
             % (result["failed"], result["attempted"]))
'
    echo "check.sh: e2e gate ok"
}

case "$mode" in
  release)  run_config build ;;
  sanitize) run_config build-asan -DRSAFE_SANITIZE=ON ;;
  tsan)     run_tsan ;;
  tidy)     run_tidy ;;
  fuzz)     run_fuzz ;;
  trace)    run_trace ;;
  bench)    run_bench ;;
  fleet)    run_fleet ;;
  ckpt)     run_ckpt ;;
  health)   run_health ;;
  paper)    run_paper ;;
  e2e)      run_e2e ;;
  all)
    run_config build
    run_config build-asan -DRSAFE_SANITIZE=ON
    run_tsan
    ;;
  *)
    echo "usage: tools/check.sh [release|sanitize|tsan|tidy|fuzz|trace|bench|fleet|ckpt|health|paper|e2e|all]" >&2
    exit 2
    ;;
esac
echo "check.sh: all requested configurations passed"
