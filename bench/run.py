"""Run one workload of the elldens benchmark and print its result line.

    python3 bench/run.py --workload mc_ref --seed 0 --seconds 10 --trace 0

With --trace 0 the run measures the end-to-end metrics with no tracing:

    setup_s      median over cold child processes of the time from process
                 start to the end of the workload's set-up (import, field
                 tables, closed points, jet matrices)
    units_per_s  median over rounds of warm in-process throughput, for
                 --seconds seconds; a unit is a sample, a tuple or a datum
    wall_s       median over repeats of one pass of the workload's commands,
                 each run as a cold `python3 -m elldens ... --no-timing`
    peak_rss_mb  peak resident memory of this process (the in-process work)

With --trace 1 the run does a fixed amount of the same work under span
wrappers (see tracing.py) and reports the per-layer metrics, the tracing
overhead on one pass of the commands, and fail_frac.

Every run checks the program's outputs; each check is one operation in
`attempted`, and a check that does not hold is one in `failed`.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  A fuller record (percentiles, sample counts, environment,
every check) goes to bench/results/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from common import RESULTS, init_process, run_child, summarize

END_TO_END = {"setup_s": "s", "wall_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB"}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = {
    "gf.make_field.s": _S, "gf.elem_ops": _N, "gf.elem_ops_per_unit": _N,
    "sections.Section.mul.s": _S, "sections.Section.mul.calls": _N,
    "sections.exact_divide.s": _S, "sections.section_from_slots.calls": _N,
    "zeta.zeta_table.s": _S, "zeta.zeta_inverse_truncated.s": _S,
    "base.closed_points_up_to.s": _S, "base.closed_points.count": _N,
    "base.jet_space_map.s": _S, "base.jet_space_map.calls": _N,
    "base.jet_space_map.cells": _N, "base.jet_rows.useful_frac": _R,
    "base.jet_at.s": _S, "base.jet_at.calls": _N,
    "linalg.rank_mod_p.s": _S, "linalg.rank_mod_p.calls": _N,
    "linalg.rank_mod_p.cells": _N,
    "weier.singular_jets_closed_form.s": _S,
    "weier.singular_jets_closed_form.calls_per_unit": _N,
    "weier.singular_jets_closed_form.hit_frac": _R,
    "weier.singular_jets_oracle.s": _S,
    "weier.discriminant_value.s": _S, "weier.discriminant_value.calls_per_sample": _N,
    "weier.weierstrass_from_slots.calls_per_sample": _N,
    "weier.discriminant.s": _S, "weier.discriminant.calls": _N,
    "weier.minimality_witness.s": _S,
    "density.mc_density.self_s": _S, "density.sample_seed.s": _S,
    "density.sample_seed.calls": _N, "density.jet_census.self_s": _S,
    "density.jet_census.tuples": _N, "density.surjectivity_check.s": _S,
    "density.singular_scan.self_s": _S,
    "cli.import_s": _S, "cli.main.self_s": _S,
    "trace.overhead_s": _S, "trace.base_wall_s": _S,
    "fail_frac": _R,
}


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.items.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)

    def extend(self, items) -> None:
        for name, ok in items:
            self.add(name, ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.items)


# -- child processes ---------------------------------------------------------------


def cold_setup_s(wl, seed: int, tiny: bool, checks: Checks) -> float | None:
    proc = run_child(["bench/cold_setup.py", wl.name, str(seed), "1" if tiny else "0"])
    checks.add("setup.exit_0", proc.returncode == 0)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        return None
    return float(proc.stdout.decode().split()[-1])


class CliPass:
    """One pass of a workload's commands, each a cold CLI process."""

    def __init__(self, wl, seed: int, checks: Checks, traced_tag: str | None = None):
        self.seconds = 0.0
        self.per_command: list[float] = []
        self.outputs: list[bytes] = []
        self.import_s: list[float] = []
        self.main_self_s: list[float] = []
        for j, cmd in enumerate(wl.cli_commands(seed)):
            argv = cmd + ["--no-timing"]
            if traced_tag is None:
                argv = ["-m", "elldens"] + argv
            else:
                summary = RESULTS / f"{traced_tag}-cli{j}.json"
                argv = ["bench/traced_cli.py", str(summary)] + argv
            t0 = time.perf_counter()
            proc = run_child(argv)
            dt = time.perf_counter() - t0
            checks.add(f"cli.{cmd[0]}.exit_0", proc.returncode == 0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            self.seconds += dt
            self.per_command.append(dt)
            self.outputs.append(proc.stdout)
            if traced_tag is not None and proc.returncode == 0:
                info = json.loads(summary.read_text())
                self.import_s.append(info["import_s"])
                self.main_self_s.append(info["main_self_s"])

    def parsed(self) -> list[dict] | None:
        try:
            return [json.loads(out) for out in self.outputs]
        except ValueError:
            return None


def check_cli_outputs(wl, passes: list[CliPass], round0, checks: Checks) -> None:
    first = passes[0]
    for other in passes[1:]:
        checks.add("cli.repeats_identical", other.outputs == first.outputs)
    parsed = first.parsed()
    checks.add("cli.output_is_json", parsed is not None)
    if parsed is not None:
        checks.extend(wl.check_cli(parsed, round0))


# -- the two kinds of run ----------------------------------------------------------


def untraced_run(wl, seed: int, seconds: float, tiny: bool, checks: Checks):
    """`wl.cycles` cycles, each one cold set-up child, one CLI pass and its
    share of the in-process rounds, so that every metric samples the whole
    run and a slow phase of the machine weighs on all of them alike."""
    # one throw-away import, so every timed child finds compiled bytecode
    checks.add("setup.import_0", run_child(["-c", "import elldens.cli"]).returncode == 0)
    wl.cold_setup(seed)
    setups, passes, rounds = [], [], []
    busy = 0.0
    for c in range(wl.cycles):
        s = cold_setup_s(wl, seed, tiny, checks)
        if s is not None:
            setups.append(s)
        passes.append(CliPass(wl, seed, checks))
        while not rounds or busy < seconds * (c + 1) / wl.cycles:
            rounds.append(wl.round(seed, len(rounds)))
            busy += rounds[-1].seconds
    for r in rounds:
        checks.extend(r.checks)
    round_checks, estimate = wl.check_rounds(rounds)
    checks.extend(round_checks)
    check_cli_outputs(wl, passes, rounds[0], checks)
    if not setups:
        raise SystemExit("error: no cold set-up child finished")

    rates = [r.units / r.seconds for r in rounds]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.seconds for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "setup_s": summarize(setups),
        "wall_s": summarize(walls),
        "wall_s.per_command": [summarize([p.per_command[j] for p in passes])
                               for j in range(len(passes[0].per_command))],
        wl.rate_name: summarize(rates),
        "unit_latency_s": summarize([x for r in rounds for x in r.latencies]),
        "peak_rss_mb": peak_mb,
        "rounds": len(rounds),
        "units": sum(r.units for r in rounds),
        "estimate": estimate,
    }
    if "xcheck_s" in rounds[0].extra:
        detail["xcheck_tuples_per_s"] = (rounds[0].extra["xcheck_tuples"]
                                         / rounds[0].extra["xcheck_s"])
    repeats = {"cycles": wl.cycles, "rounds": len(rounds)}
    return metrics, detail, repeats


def traced_run(wl, seed: int, checks: Checks, tag: str):
    from tracing import Tracer, install, layer_metrics

    tracer = Tracer()
    patches = install(tracer)
    try:
        wl.cold_setup(seed)
        rounds = [wl.round(seed, i) for i in range(wl.traced_rounds)]
    finally:
        patches.restore()
    for r in rounds:
        checks.extend(r.checks)
    round_checks, estimate = wl.check_rounds(rounds)
    checks.extend(round_checks)
    again = wl.round(seed, 0)
    checks.add("trace.results_match_untraced", again.fingerprint == rounds[0].fingerprint)
    metrics = layer_metrics(tracer, sum(r.units for r in rounds), wl.useful_degree)

    plain = CliPass(wl, seed, checks)
    traced = CliPass(wl, seed, checks, traced_tag=tag)
    check_cli_outputs(wl, [plain], rounds[0], checks)
    checks.add("trace.cli_output_matches_untraced", traced.outputs == plain.outputs)
    metrics["cli.import_s"] = statistics.median(traced.import_s) if traced.import_s else 0.0
    metrics["cli.main.self_s"] = sum(traced.main_self_s)
    metrics["trace.overhead_s"] = traced.seconds - plain.seconds
    metrics["trace.base_wall_s"] = plain.seconds
    for name in wl.expected_nonzero:
        checks.add(f"trace.nonzero.{name}", metrics[name] != 0)
    metrics["fail_frac"] = checks.failed / checks.attempted
    tracer.write_spans(RESULTS / f"{tag}.spans.tsv.gz")
    detail = {
        "units": sum(r.units for r in rounds),
        "estimate": estimate,
        "spans": len(tracer.start),
        "trace_overhead": {"cli_pass_s": metrics["trace.overhead_s"],
                           "cli_pass_base_s": plain.seconds,
                           "round0_s": rounds[0].seconds - again.seconds,
                           "round0_base_s": again.seconds},
    }
    repeats = {"rounds": wl.traced_rounds, "cli_passes": 1}
    return metrics, detail, repeats


# -- entry point ---------------------------------------------------------------------


def environment(seed: int, load_at_start) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "loadavg_at_start": load_at_start,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    init_process()
    from workloads import workloads

    ap = argparse.ArgumentParser(description="elldens benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (used by selftest.py)")
    args = ap.parse_args(argv)
    load = os.getloadavg()
    wl = workloads(args.tiny)[args.workload]
    RESULTS.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    checks = Checks()
    if args.trace:
        metrics, detail, repeats = traced_run(wl, args.seed, checks, tag)
        units = PER_LAYER
    else:
        metrics, detail, repeats = untraced_run(wl, args.seed, args.seconds, args.tiny, checks)
        units = END_TO_END
    record = {
        "workload": wl.name, "unit": wl.unit, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "environment": environment(args.seed, load),
        "repeats": repeats,
        "attempted": checks.attempted, "failed": checks.failed,
        "fail_frac": checks.failed / checks.attempted,
        "checks_failed": [n for n, ok in checks.items if not ok],
        "metrics": metrics, "detail": detail,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
