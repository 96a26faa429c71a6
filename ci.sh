#!/usr/bin/env bash
# CI entry point: tier-1 (build + full test suite) plus a bounded,
# fixed-seed differential fuzz pass over all three simulator pairs.
# Everything here is deterministic; a red run reproduces locally with the
# same commands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== lint: clippy (warnings are errors) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== frozen benchmark builds against the current crates =="
# perfbench/ is a separate workspace with its own lock file. It fails to
# build when a public API it imports changes, and --locked fails when a
# changed dependency edge would rewrite perfbench/Cargo.lock.
cargo build -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== frozen benchmark runs with every check passing =="
# A one-second run of each workload; conformance is the only one that
# locksteps whole guests. The benchmark checks oracle results, instret
# agreement across simulators, lockstep and fuzz agreement, zero silent
# corruption for Method1Ft and the Table IV/VI cross-check; its last line
# must report them all passed. Wall time is not gated.
for workload in paper_tables conformance churn; do
    result="$(cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 2019 --seconds 1 --trace 0 | tail -n 1)"
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "perfbench $workload: checks failed: ${result:0:200}" >&2
        exit 1
    fi
    echo "perfbench $workload: correct, 0 failed checks"
done

echo "== benchmark record BENCH_e2e.json matches its schema =="
# Every row has exactly the keys name, layer, unit, value (number),
# samples (>= 1), git_rev and host ({nproc: number, rustc: string}); its
# name is <workload>.<metric> with both taken from BENCHMARK.json (the
# end_to_end metrics for layer "e2e", the per_layer metrics otherwise);
# and its git_rev names a commit in this repository.
bad="$(jq -r --slurpfile bench BENCHMARK.json '
    ($bench[0].workloads | map(.name)) as $workloads
    | ($bench[0].end_to_end | map(.name)) as $e2e
    | ($bench[0].per_layer | map(.name)) as $per_layer
    | if type != "array" or length == 0 then "BENCH_e2e.json: not a non-empty array"
      else .[]
      | (if type != "object" then "a row that is not an object"
         elif keys != ["git_rev", "host", "layer", "name", "samples", "unit", "value"]
             then "keys \(keys)"
         elif ([.name, .layer, .unit, .git_rev] | map(type) | unique) != ["string"]
             then "name, layer, unit and git_rev must be strings"
         elif (.value | type) != "number" then "value is not a number"
         elif (.samples | type) != "number" or .samples < 1 then "samples is not >= 1"
         elif (.host | type) != "object" or (.host | keys) != ["nproc", "rustc"]
             or (.host.nproc | type) != "number" or (.host.rustc | type) != "string"
             then "host must be {nproc: number, rustc: string}"
         elif (.name | contains(".") | not) then "name is not <workload>.<metric>"
         elif (.name | sub("\\..*$"; "")) as $w | any($workloads[]; . == $w) | not
             then "unknown workload"
         elif (.name | sub("^[^.]*\\."; "")) as $m
             | any((if .layer == "e2e" then $e2e else $per_layer end)[]; . == $m) | not
             then "metric not in BENCHMARK.json for layer \(.layer)"
         else empty end) as $why
      | "\(.name? // "?"): \($why)"
      end
' BENCH_e2e.json)"
if [ -n "$bad" ]; then
    echo "BENCH_e2e.json rows that break the schema:" >&2
    echo "$bad" >&2
    exit 1
fi
for rev in $(jq -r '.[].git_rev' BENCH_e2e.json | sort -u); do
    if ! git cat-file -e "$rev^{commit}" 2>/dev/null; then
        echo "BENCH_e2e.json: git_rev $rev is not a commit in this repository" >&2
        exit 1
    fi
done
echo "BENCH_e2e.json: $(jq length BENCH_e2e.json) rows match the schema"

echo "== static analysis: rvlint over every kernel guest =="
# Lints every co-design kernel guest (CFG/dataflow + RoCC-protocol
# typestate + BCD operand checks) across generated vector databases of
# increasing size. Exits nonzero on any Error-severity finding. The
# broken-fixture suite (tests/rvlint_fixtures.rs) already ran in tier-1.
cargo run --release -p decimal-bench --bin rvlint -- --seed 2019

echo "== paper tables at full scale match the committed golden output =="
# At the paper's 8,000 samples a guest maps about 51 pages, so only this
# scale exercises page-table growth and last-hit cache eviction in the
# simulators' memory. The 64-sample golden counters test maps 3-5.
GOLDEN_DIR="$(mktemp -d)"
for table in table4 table6 pareto; do
    target/release/tables "$table" --samples 8000 --seed 2019 \
        > "$GOLDEN_DIR/$table.txt" 2>/dev/null
    diff tests/golden/"$table".txt "$GOLDEN_DIR/$table.txt"
done
rm -rf "$GOLDEN_DIR"
echo "table4, table6 and pareto are byte-identical to tests/golden/"

echo "== differential verification (bounded) =="
# Conformance on a CI-sized database slice, a 200-program fuzz run, and
# the RoCC command differential — all on the paper's seed. The full
# 8,000-sample configuration is the same binary with --samples 8000.
cargo run --release -p decimal-bench --bin lockstep -- all \
    --seed 2019 --samples 200 --programs 200 --commands 10000

echo "== fault-injection campaign (bounded, fixed seed) =="
# 500 seeded single-bit faults against the plain and the fault-tolerant
# Method-1 guests. Fails on any replay outside the four outcome classes,
# and on any silent data corruption slipping past the fault-tolerant
# kernel's detection net.
cargo run --release -p decimal-bench --bin lockstep -- faults \
    --seed 2019 --faults 500 --fault-samples 6

echo "== crash-safe resume (kill -9 mid-campaign, resume, diff) =="
# A journaled campaign is started, killed mid-run, and resumed from its
# journal; the resumed stdout must be byte-identical to an uninterrupted
# run's. Campaigns are deterministic in the seed, so the diff also passes
# in the (timing-dependent) case where the kill lands after completion —
# resume then degrades to a pure journal replay.
LOCKSTEP=target/release/lockstep
RESUME_DIR="$(mktemp -d)"
trap 'rm -rf "$RESUME_DIR"' EXIT
"$LOCKSTEP" faults --seed 2019 --faults 300 --fault-samples 6 \
    --journal "$RESUME_DIR/full.journal" --checkpoint-every 25 \
    > "$RESUME_DIR/full.out"
"$LOCKSTEP" faults --seed 2019 --faults 300 --fault-samples 6 \
    --journal "$RESUME_DIR/killed.journal" --checkpoint-every 25 \
    > "$RESUME_DIR/killed.out" 2>/dev/null &
KILLED_PID=$!
sleep 2
kill -9 "$KILLED_PID" 2>/dev/null || true
wait "$KILLED_PID" 2>/dev/null || true
"$LOCKSTEP" faults --seed 2019 --faults 300 --fault-samples 6 \
    --resume "$RESUME_DIR/killed.journal" --checkpoint-every 25 \
    > "$RESUME_DIR/resumed.out" 2>/dev/null
diff "$RESUME_DIR/full.out" "$RESUME_DIR/resumed.out"
echo "resumed campaign output is byte-identical"

echo "ci: all checks passed"
