"""Sameness check: one fixed list of ``python -m elldens ... --no-timing``
commands, run on two trees, compared byte for byte.

    python tools/same.py BASE CHANGE

Each side is an existing directory, used as is, or else a git ref of this
repository, copied with ``git archive`` into a temporary directory.  Every
command runs as a fresh process with ``PYTHONPATH=<tree>/src`` in a fresh
temporary working directory, two processes at a time; a command that reads
a stored datum finds it there, copied from that tree's ``tests/golden``.
The exit code, stdout and stderr of each command must match between the
trees.  The tool prints ``N commands, K differ`` and each differing
command, and exits 1 if any differ.  ``same.py HEAD HEAD`` also checks
that every listed output is deterministic.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DATUM = "datum_q9_m2_k1.json"
# the stored datum each working directory receives, by the name commands read
INPUTS = {name: f"tests/golden/{GOLDEN_DATUM}" for name in (GOLDEN_DATUM, "datum.json")}


def _commands() -> list[tuple[str, ...]]:
    cmds: list[str] = []
    # the goldens of tests/golden
    golden_mc = [(2, 2, 2, 18, 1), (5, 5, 1, 36, 3), (2, 4, 1, 6, 2), (2, 2, 1, 1, 2),
                 (3, 9, 1, 4, 1)]
    for p, q, m, k, r in golden_mc:
        cmds.append(f"density-mc -p {p} -q {q} -m {m} -k {k} -r {r} --samples 200 --seed 7")
    for q, m, k, seed in ((4, 2, 1, 10), (9, 1, 2, 1)):
        cmds.append(f"scan --random -q {q} -m {m} -k {k} --seed {seed} -r 2")
        cmds.append(f"minimal --random -q {q} -m {m} -k {k} --seed {seed}")
    cmds.append(f"minimal --input {GOLDEN_DATUM}")
    # the README's commands
    cmds += ["zeta -m 2 -q 2 -R 3 -s 3",
             "census -p 5 -q 5 -m 1 -e 1 --cross-check",
             "surj -p 2 -q 2 -m 2 -k 18 -e 1",
             "density-exact -q 2 -m 2 -r 1",
             "density-mc -p 2 -q 2 -m 2 -k 18 -r 1 --samples 2000 --seed 0",
             "scan --random -q 5 -m 1 -k 1 --seed 13 -r 2",
             "minimal --input datum.json"]
    # seeded data: the acceptance-5 shapes (k = 1), then wider ones, as (q, m, k, r)
    shapes = [(q, m, 1, r) for q in (2, 3, 5) for m, r in ((1, 2), (2, 1))]
    shapes += [(4, 2, 4, 2), (2, 2, 9, 2), (9, 1, 2, 2), (25, 1, 1, 1), (49, 1, 1, 1)]
    for q, m, k, r in shapes:
        for seed in range(10):
            src = f"--random -q {q} -m {m} -k {k} --seed {seed}"
            for fmt in ("", " --format csv") if seed < 3 else ("",):
                cmds += [f"scan {src} -r {r}{fmt}", f"minimal {src}{fmt}"]
    for p, q, m, e in ((5, 5, 1, 1), (5, 5, 2, 1), (2, 2, 2, 1), (2, 2, 1, 2), (3, 3, 2, 1),
                       (2, 4, 1, 1)):
        cmds.append(f"census -p {p} -q {q} -m {m} -e {e} --cross-check")
    for p, q, m, k, r in golden_mc:
        for seed in (0, 7):
            cmds.append(f"density-mc -p {p} -q {q} -m {m} -k {k} -r {r} --samples 2000 "
                        f"--seed {seed}")
    for p, q, m, k, r in ((7, 49, 1, 2, 1), (3, 81, 1, 1, 1)):
        cmds.append(f"density-mc -p {p} -q {q} -m {m} -k {k} -r {r} --samples 200 --seed 0")
    cmds += ["scan --random -q 16384 -m 1 -k 1 --seed 1 -r 1",
             "surj -p 2 -q 2 -m 2 -k 18 -e 1 --format csv",
             "zeta -m 2 -q 2 -R 3 -s 3 --format csv",
             "density-exact -q 2 -m 2 -r 1 --format csv"]
    # refused: an enumeration past its cap (exit 3), a q that is no prime
    # power and a q that is no power of p (exit 2)
    cmds += ["census -p 2 -q 2 -m 2 -e 3",
             "scan --random -q 6 -m 1 -k 1 -r 1",
             "density-mc -p 3 -q 2 -m 1 -k 1 -r 1 --samples 10"]
    # a command listed twice (a README command, a q = 9 golden) runs once
    return [tuple(c.split()) + ("--no-timing",) for c in dict.fromkeys(cmds)]


COMMANDS = _commands()


def _tree(side: str, dest: Path) -> Path:
    """The directory of one side: the side itself, or its git archive
    unpacked at `dest`."""
    if Path(side).is_dir():
        return Path(side).resolve()
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", side],
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def _run(tree: Path, argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command, run fresh on one tree."""
    env = {k: v for k, v in os.environ.items() if k != "ELLDENS_OUT_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryDirectory(prefix="elldens-same-") as cwd:
        for name, rel in INPUTS.items():
            if name in argv:
                shutil.copyfile(tree / rel, Path(cwd) / name)
        proc = subprocess.run([sys.executable, "-m", "elldens", *argv], cwd=cwd, env=env,
                              capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same.py BASE CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="elldens-trees-") as tmp:
        trees = [_tree(side, Path(tmp) / f"side{i}") for i, side in enumerate(argv)]
        jobs = [(tree, cmd) for cmd in COMMANDS for tree in trees]
        with ThreadPoolExecutor(max_workers=2) as pool:
            out = list(pool.map(lambda job: _run(*job), jobs))
    differ = [cmd for i, cmd in enumerate(COMMANDS) if out[2 * i] != out[2 * i + 1]]
    print(f"{len(COMMANDS)} commands, {len(differ)} differ")
    for cmd in differ:
        print("differs: python -m elldens " + " ".join(cmd))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
