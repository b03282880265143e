"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size (`run.py --tiny`: same code paths, small
inputs), untraced and traced, and checks that each run exits 0, that its
last line has exactly the keys correct/attempted/failed/metrics with no
failed check, and that the workload and metric names and units it emits are
the ones BENCHMARK.json declares.  It also runs the benchmark from a copy
that holds only BENCHMARK.json and the benchmark's own files, where it must
exit non-zero without printing a result.  Exits 1 on any problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH_DIR, RESULTS, ROOT
from run import END_TO_END, PER_LAYER
from workloads import workloads

TIMEOUT_S = 170


def _run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_spec(spec: dict) -> list[str]:
    problems = []
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(workloads()):
        problems.append(f"BENCHMARK.json workloads {names} != run.py's {sorted(workloads())}")
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"only there {sorted(set(theirs) - set(ours))}, "
                            f"only here {sorted(set(ours) - set(theirs))}, "
                            f"units {[n for n in theirs if n in ours and theirs[n] != ours[n]]}")
    return problems


def check_run(name: str, trace: int, spec: dict) -> list[str]:
    where = f"{name} --trace {trace}"
    proc = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{where}: correct={line['correct']} failed={line['failed']} "
                        f"attempted={line['attempted']}: {proc.stderr[-2000:]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(got)} != BENCHMARK.json {sorted(want)}")
    for k, v in line["metrics"].items():
        if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool):
            problems.append(f"{where}: {k} is not a number")
        elif not trace and v["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {k} = {v['value']}")
    return problems


def check_bare_copy() -> list[str]:
    """Without the package source the benchmark must fail, printing nothing."""
    bare = RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "census", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    problems = check_spec(spec) + check_bare_copy()
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(w["name"], trace, spec)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
