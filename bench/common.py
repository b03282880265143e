"""Paths, child-process plumbing, seeds and summary statistics shared by the
benchmark's entry points.

Nothing here imports `elldens`: the cold-setup and traced-CLI children time
that import themselves, so it must not happen before they start the clock.
"""
from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
CHILD_TIMEOUT_S = 150


def init_process() -> None:
    """Start-up of every entry point, before NumPy is imported: exit with
    code 2 when the checkout holds no package source, put that source first
    on the import path, and pin BLAS to one thread.

    A second BLAS thread on a 2-core box measures the scheduler, as a process
    pool would.  Child processes inherit the setting through the environment.
    """
    if not (SRC / "elldens" / "__init__.py").is_file():
        print(f"error: no elldens source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child Python process from the checkout root and wait for it;
    a child that outlives CHILD_TIMEOUT_S is killed and reaped."""
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)


def derive_seed(seed: int, tag: str) -> int:
    """A stable 31-bit seed for one named input of a run with `seed`."""
    h = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big") >> 1


_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0)


def summarize(values: list[float]) -> dict:
    """Median and the highest of p90/p95/p99/p99.9 that has at least ten
    samples beyond it (nearest rank), with the sample count; up to twenty
    samples are kept as they are, in the order taken."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else None, "n": n}
    if n <= 20:
        out["values"] = values
    for pct in _TAIL_PCTS:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = max(1, math.ceil(pct * n / 100.0))
            out["tail_pct"] = pct
            out["tail"] = vals[rank - 1]
            break
    return out
