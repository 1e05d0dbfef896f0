#!/usr/bin/env bash
# Coverage report for src/: which functions and lines the bench binaries
# reach, which only the tests reach, which only the examples reach, and which
# nothing runs. It is a report for subtraction work, not a CI gate.
#
#   scripts/coverage.sh [workdir]
#
# Builds the repository with gcc `--coverage -O0` in <workdir> (default: a
# fresh temporary directory), then runs three passes and snapshots the
# counters after each with `gcov -j`, deleting every .gcda in between:
#   1. every bench binary (build/bench/bench_*), one after another;
#   2. ctest (the whole suite);
#   3. every example binary (build/examples/*).
# A function or line is "bench" if pass 1 reached it, "test-only" if only
# pass 2 did, "examples-only" if only pass 3 did, and "never" otherwise.
# Functions in the chaos harness (src/sim/chaos.*) are counted apart from
# the other test-only functions; instantiations of `Result<T>` are listed
# apart from the other functions.
#
# At -O0, bench_e22_saturation's `clients:100000/threads:8` leg overruns its
# own `secs < 30.0` budget check and aborts, and an aborted process writes no
# counters. The script therefore runs E22 without that leg and says so; the
# same code runs in the `clients:10000/threads:8` leg.
#
# Requires gcc/g++ and gcov (the same version), cmake, python3.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
WORK="${1:-$(mktemp -d -t disagg-cov.XXXXXX)}"
BUILD="${WORK}/build"
JSON="${WORK}/gcov"
JOBS="$(nproc 2>/dev/null || echo 4)"
E22_SKIPPED_LEG='clients:100000/threads:8'

echo "==> coverage build in ${BUILD} (gcc --coverage -O0)"
cmake -B "${BUILD}" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" >/dev/null

reset_counters() { find "${BUILD}" -name '*.gcda' -delete; }

# Writes one gcov JSON file per object into ${JSON}/<pass>. Objects without
# a .gcda (not run in this pass) still report every function, at count 0.
snapshot() {
  local out="${JSON}/$1"
  rm -rf "${out}" && mkdir -p "${out}"
  find "${BUILD}" -name '*.gcno' -print0 |
    (cd "${out}" && xargs -0 -n 16 -P "${JOBS}" gcov -j -p >/dev/null 2>&1)
}

FAILED=()
reset_counters
echo "==> pass 1: bench binaries"
for bin in "${BUILD}"/bench/bench_*; do
  [[ -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  filter=()
  if [[ "${name}" == bench_e22_saturation ]]; then
    echo "    ${name}: leaving out the ${E22_SKIPPED_LEG} leg" \
      "(its 30 s budget check aborts at -O0)"
    filter=(--benchmark_filter="-${E22_SKIPPED_LEG}")
  fi
  if ! "${bin}" "${filter[@]}" >/dev/null 2>&1; then FAILED+=("${name}"); fi
done
snapshot bench

reset_counters
echo "==> pass 2: ctest"
if ! ctest --test-dir "${BUILD}" -j "${JOBS}" >"${WORK}/ctest.log" 2>&1; then
  FAILED+=("ctest (see ${WORK}/ctest.log)")
fi
tail -n 3 "${WORK}/ctest.log" | sed 's/^/    /'
snapshot tests

reset_counters
echo "==> pass 3: examples"
for bin in "${BUILD}"/examples/*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  if ! "${bin}" >/dev/null 2>&1; then FAILED+=("$(basename "${bin}")"); fi
done
snapshot examples
reset_counters

if ((${#FAILED[@]})); then
  echo "==> failed runs (their counters may be missing): ${FAILED[*]}"
fi

python3 - "${ROOT}" "${JSON}" <<'EOF'
import gzip, json, os, re, sys
from collections import defaultdict

root, json_dir = sys.argv[1], sys.argv[2]
src_dir = os.path.join(root, "src") + os.sep
passes = ["bench", "tests", "examples"]
funcs = {}                 # (file, name) -> start line
func_hit = defaultdict(set)  # (file, name) -> passes that ran it
lines = set()
line_hit = defaultdict(set)

for p in passes:
    d = os.path.join(json_dir, p)
    for fn in os.listdir(d):
        if not fn.endswith(".gcov.json.gz"):
            continue
        with gzip.open(os.path.join(d, fn), "rt") as f:
            doc = json.load(f)
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_dir):
                continue
            rel = os.path.relpath(path, root)
            for fu in entry["functions"]:
                key = (rel, fu["demangled_name"])
                funcs.setdefault(key, fu["start_line"])
                if fu["execution_count"] > 0:
                    func_hit[key].add(p)
            for ln in entry["lines"]:
                key = (rel, ln["line_number"])
                lines.add(key)
                if ln["count"] > 0:
                    line_hit[key].add(p)

def klass(hits):
    if "bench" in hits:
        return "bench"
    if "tests" in hits:
        return "test-only"
    if "examples" in hits:
        return "examples-only"
    return "never"

result_t = re.compile(r"^disagg::Result<.*>::")
chaos = re.compile(r"^src/sim/chaos\.")
groups = defaultdict(list)
for key, start in funcs.items():
    rel, name = key
    kind = klass(func_hit[key])
    if result_t.match(name):
        kind = "Result<T> " + kind
    elif kind == "test-only" and chaos.match(rel):
        kind = "test-only (chaos harness)"
    groups[kind].append((rel, start, name))

order = ["never", "examples-only", "test-only", "test-only (chaos harness)",
         "Result<T> never", "Result<T> examples-only", "Result<T> test-only"]
for kind in order:
    items = sorted(groups.get(kind, []))
    print(f"\n== {kind}: {len(items)} functions")
    for rel, start, name in items:
        print(f"  {rel}:{start}  {name}")

line_kinds = defaultdict(int)
for key in lines:
    line_kinds[klass(line_hit[key])] += 1
print("\n== summary")
print("functions (excluding Result<T>): " + ", ".join(
    f"{k} {len(groups.get(k, []))}" for k in
    ["bench", "test-only", "test-only (chaos harness)", "examples-only",
     "never"]))
print("Result<T> instantiations: " + ", ".join(
    f"{k} {len(groups.get('Result<T> ' + k, []))}" for k in
    ["bench", "test-only", "examples-only", "never"]))
print(f"src lines: instrumented {len(lines)}, " + ", ".join(
    f"{k} {line_kinds[k]}" for k in
    ["bench", "test-only", "examples-only", "never"]))
EOF
