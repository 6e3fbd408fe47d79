#!/usr/bin/env bash
# Which library code does no user path reach?
#
# Builds polaris_perfbench and polaris_cli with `-O1 --coverage`, runs every
# path a user drives - the four perfbench workloads (seed 7, 1 s, traced and
# untraced) and the CLI steps of the CI cli-smoke, serve-smoke and
# distributed-smoke jobs - and then prints, from `gcov --json-format`:
#   * every src/ function that was never entered, and
#   * every src/*.cpp file that was never linked into either program.
# Tests, benches and examples are deliberately not run: code that only they
# reach is what this report is for (see DESIGN.md, "What no user path
# reaches").
#
# Usage (from anywhere; needs cmake, g++, gcov and python3):
#
#     tools/user_path_coverage.sh [build-dir]
#
# The build directory defaults to build-coverage/ at the repository root.
# A full run takes a few minutes. It is a survey tool, not a CI step.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
OUT=$(mkdir -p "${1:-$ROOT/build-coverage}" && cd "${1:-$ROOT/build-coverage}" && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)
COVERAGE=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O1 --coverage"
          "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

echo "== coverage builds in $OUT" >&2
cmake -S "$ROOT/perfbench" -B "$OUT/perfbench" "${COVERAGE[@]}" > /dev/null
cmake --build "$OUT/perfbench" --target polaris_perfbench -j "$JOBS" > /dev/null
cmake -S "$ROOT" -B "$OUT/cli" "${COVERAGE[@]}" -DPOLARIS_BUILD_TESTS=OFF \
    -DPOLARIS_BUILD_BENCHES=OFF -DPOLARIS_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$OUT/cli" --target polaris_cli -j "$JOBS" > /dev/null
find "$OUT" -name '*.gcda' -delete

PERFBENCH="$OUT/perfbench/polaris_perfbench"
CLI="$OUT/cli/polaris_cli"

echo "== perfbench workloads" >&2
for workload in suite_audit train_mask serve_mix distributed_audit; do
  digest=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' \
             "$ROOT/perfbench/digests.json" "$workload")
  for trace in 0 1; do
    "$PERFBENCH" --workload "$workload" --seed 7 --seconds 1 --trace "$trace" \
        --expect-digest "$digest" --run-dir "$OUT/run" > /dev/null
  done
done

echo "== CLI smoke steps" >&2
WORK="$OUT/smoke"
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
SOCK="$WORK/serve.sock"
DIST_SOCK="$WORK/dist.sock"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2> /dev/null || true; done
}
trap cleanup EXIT

wait_for() {  # wait_for <test-expression...>: up to 5 s
  for _ in $(seq 1 50); do
    if "$@"; then return 0; fi
    sleep 0.1
  done
  "$@"
}

# cli-smoke
"$CLI" train --out smoke.plb --iterations 2 --traces 512 --rounds 40 \
    --mask-size 30 --max-designs 2 > /dev/null
"$CLI" inspect --bundle smoke.plb --rules > /dev/null
"$CLI" mask --bundle smoke.plb --design des3 --scale 0.4 --mask-size 20 \
    --out masked.v --json > /dev/null
"$CLI" mask --bundle smoke.plb --design des3 --scale 0.4 --mask-size 20 \
    --out verified.v --verify --json > /dev/null
"$CLI" audit --design masked.v --traces 512 --json > /dev/null
"$CLI" audit --design masked.v --traces 512 --json --trace trace.json > /dev/null
"$CLI" version > /dev/null
"$CLI" version --json > /dev/null
cp smoke.plb corrupt.plb
printf '\377' | dd of=corrupt.plb bs=1 seek=100 conv=notrunc 2> /dev/null
if "$CLI" inspect --bundle corrupt.plb > /dev/null 2>&1; then
  echo "user_path_coverage: corrupt bundle was accepted" >&2
  exit 1
fi

# serve-smoke
"$CLI" serve --bundle smoke.plb --socket "$SOCK" --metrics-file metrics.jsonl \
    --sample-interval-ms 200 > serve.log 2>&1 &
PIDS+=($!)
wait_for test -S "$SOCK"
"$CLI" client ping --socket "$SOCK" > /dev/null
"$CLI" client audit --socket "$SOCK" --design des3 --scale 0.4 --traces 512 \
    --json > /dev/null
"$CLI" client mask --socket "$SOCK" --design des3 --scale 0.4 --mask-size 20 \
    --out served.v --json > /dev/null
"$CLI" client mask --socket "$SOCK" --design des3 --scale 0.4 --mask-size 20 \
    --out served.v --json > /dev/null 2>&1
"$CLI" client score --socket "$SOCK" --design des3 --scale 0.4 --json > /dev/null
"$CLI" client audit --socket "$SOCK" --design des3 --scale 0.4 --traces 65536 \
    --budget 4096 --stream --json > /dev/null 2>&1
"$CLI" client audit --socket "$SOCK" --design des3 --scale 1.0 \
    --traces 262144 --json > /dev/null &
audit_pid=$!
"$CLI" client status --socket "$SOCK" > /dev/null
wait "$audit_pid"
"$CLI" client status --socket "$SOCK" --table > /dev/null
"$CLI" client top --socket "$SOCK" --interval 0.2 --count 2 > /dev/null
"$CLI" client stats --socket "$SOCK" > /dev/null
"$CLI" client stats --socket "$SOCK" --prom > /dev/null
python3 - "$SOCK" << 'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"XXXXGARBAGEFRAME")
s.recv(4096)
s.close()
EOF
"$CLI" client shutdown --socket "$SOCK" > /dev/null
wait "${PIDS[0]}"

# distributed-smoke
for n in 1 2; do
  "$CLI" worker --listen tcp:127.0.0.1:0 > "worker$n.log" 2>&1 &
  PIDS+=($!)
done
for n in 1 2; do
  wait_for grep -q "serving shards on" "worker$n.log"
done
EP1=$(grep -o 'tcp:[0-9.]*:[0-9]*' worker1.log)
EP2=$(grep -o 'tcp:[0-9.]*:[0-9]*' worker2.log)
"$CLI" audit --design des3,arbiter --traces 262144 --json > single.json
"$CLI" audit --design des3,arbiter --traces 262144 --workers "$EP1,$EP2" \
    --json > dist.json 2> /dev/null
cmp single.json dist.json
"$CLI" serve --bundle smoke.plb --socket "$DIST_SOCK" --workers "$EP1" \
    > serve_dist.log 2>&1 &
serve_pid=$!
PIDS+=("$serve_pid")
wait_for test -S "$DIST_SOCK"
"$CLI" client audit --socket "$DIST_SOCK" --design des3 --scale 0.4 \
    --traces 262144 --json > /dev/null
"$CLI" client status --socket "$DIST_SOCK" > /dev/null
"$CLI" client shutdown --socket "$DIST_SOCK" > /dev/null
wait "$serve_pid"
for pid in "${PIDS[@]:1}"; do kill "$pid" 2> /dev/null || true; done
for pid in "${PIDS[@]:1}"; do wait "$pid" 2> /dev/null || true; done
PIDS=()

echo "== gcov" >&2
GCOV="$OUT/gcov"
rm -rf "$GCOV"
mkdir -p "$GCOV"
find "$OUT/perfbench" "$OUT/cli" -name '*.gcda' -path '*/polaris.dir/src/*' \
    > "$GCOV/gcda.txt"
# One directory per object file: gcov names its output after the source, and
# both builds compile every source.
n=0
while read -r gcda; do
  n=$((n + 1))
  mkdir -p "$GCOV/$n"
  (cd "$GCOV/$n" && gcov --json-format --object-directory "$(dirname "$gcda")" \
       "$gcda" > /dev/null 2>&1)
done < "$GCOV/gcda.txt"

python3 - "$ROOT" "$GCOV" << 'EOF'
import collections, glob, gzip, json, os, sys

root, gcov_dir = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep

# A function counts as entered when any object file's copy of it ran, in
# either build (inline and template code has one copy per object file).
entered = collections.defaultdict(int)
for path in glob.glob(os.path.join(gcov_dir, "*", "*.gcov.json.gz")):
    with gzip.open(path, "rt") as handle:
        report = json.load(handle)
    for record in report["files"]:
        name = os.path.normpath(
            os.path.join(report["current_working_directory"], record["file"]))
        if not name.startswith(src):
            continue
        for fn in record["functions"]:
            key = (os.path.relpath(name, root), fn["start_line"],
                   fn["demangled_name"])
            entered[key] = max(entered[key], fn["execution_count"])

never = sorted(key for key, count in entered.items() if count == 0)
print(f"# src/ functions never entered: {len(never)}")
for file, line, name in never:
    print(f"{file}:{line}\t{name}")

with open(os.path.join(gcov_dir, "gcda.txt")) as handle:
    linked = {os.path.normpath(line.strip().split("/polaris.dir/", 1)[1])
              .removesuffix(".gcda") for line in handle if line.strip()}
sources = sorted(os.path.relpath(os.path.join(base, n), root)
                 for base, _, names in os.walk(src) for n in names
                 if n.endswith(".cpp"))
unlinked = [s for s in sources if s not in linked]
print(f"# src/*.cpp files never linked: {len(unlinked)}")
for path in unlinked:
    print(path)
EOF
