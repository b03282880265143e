"""The benchmark's four workloads.

Each workload draws its inputs from the run's seed and does its work in
rounds.  A round returns the units it completed (samples, tuples or data),
the seconds those units took, a fingerprint of its results (used to compare
the traced and untraced runs), and the correctness checks it made.  The
workload also names the `elldens` CLI commands a user would run for the same
work, and checks their output against the library's.

`elldens` is imported inside the methods, never at module level: the
cold-setup child times that import.  Calls go through module attributes
(`density.mc_density`, not a name imported once) so that the traced run's
wrappers see them.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from common import derive_seed


@dataclass
class Round:
    units: int
    seconds: float
    fingerprint: object
    checks: list = field(default_factory=list)  # (name, ok)
    latencies: list = field(default_factory=list)  # seconds per unit or batch
    extra: dict = field(default_factory=dict)


class Workload:
    """What the runner needs of a workload; the subclasses below fill it in.

    cold_setup(seed)        the set-up a cold process pays before its first unit
    round(seed, i) -> Round round i of the work
    cli_commands(seed)      the same work as `elldens` command lines
    check_cli(outputs, r0)  checks of the parsed CLI outputs against round 0
    """

    name: str
    unit: str
    rate_name: str  # the throughput's name in the result file
    expected_nonzero: tuple[str, ...]
    useful_degree: int | None
    cycles: int
    traced_rounds: int

    def check_rounds(self, rounds: list[Round]) -> tuple[list, dict]:
        """Checks over all rounds of a run, and a record for the result file."""
        return [], {}


def _field(q: int):
    from elldens import gf
    p, n = gf.prime_power(q)
    return gf.make_field(p, n)


# -- Monte-Carlo ------------------------------------------------------------------


# Per-layer metrics that must read nonzero in a workload's traced run; a zero
# means a wrapper was bypassed (see README.md, "Layer -> end-to-end map").
_EVERY = ("gf.make_field.s", "gf.elem_ops", "gf.elem_ops_per_unit",
          "cli.import_s", "cli.main.self_s", "trace.base_wall_s")
_DETECTOR = ("weier.singular_jets_closed_form.s",
             "weier.singular_jets_closed_form.calls_per_unit",
             "weier.singular_jets_closed_form.hit_frac")
_POINTS = ("base.closed_points_up_to.s", "base.closed_points.count")
_JET_MATRIX = ("base.jet_space_map.s", "base.jet_space_map.calls",
               "base.jet_space_map.cells", "base.jet_rows.useful_frac")


class McWorkload(Workload):
    """Warm `mc_density` batches at one configuration, `--threads 1`.

    Round 0 is the CLI's batch (same samples and master seed), so the CLI and
    the library results can be compared.  Later rounds are batches of `batch`
    samples, each with its own master seed drawn from the run's seed.
    """

    unit = "samples"
    rate_name = "samples_per_s"
    expected_nonzero = _EVERY + _DETECTOR + _POINTS + _JET_MATRIX + (
        "zeta.zeta_table.s", "weier.discriminant_value.s",
        "weier.discriminant_value.calls_per_sample", "density.mc_density.self_s",
        "density.sample_seed.s", "density.sample_seed.calls")
    band_z = 4.0  # see README.md, "Correctness checks"

    def __init__(self, name, p, q, m, k, r, cli_samples, batch, cycles,
                 traced_rounds):
        self.name = name
        self.cfg = (p, q, m, k, r)
        self.useful_degree = r
        self.cli_samples, self.batch = cli_samples, batch
        self.cycles, self.traced_rounds = cycles, traced_rounds

    def cold_setup(self, seed: int) -> None:
        from elldens import density
        density.mc_density(*self.cfg, samples=1, master_seed=derive_seed(seed, "setup"))

    def round(self, seed: int, i: int) -> Round:
        from elldens import density
        n = self.cli_samples if i == 0 else self.batch
        t0 = time.perf_counter()
        rep = density.mc_density(*self.cfg, samples=n,
                                 master_seed=derive_seed(seed, f"batch{i}"))
        dt = time.perf_counter() - t0
        return Round(units=n, seconds=dt,
                     fingerprint=(rep.smooth_count, rep.delta_zero_count),
                     latencies=[dt / n],
                     extra={"smooth": rep.smooth_count, "exact": rep.exact,
                            "warn": rep.threshold_warning})

    def cli_commands(self, seed: int) -> list[list[str]]:
        p, q, m, k, r = self.cfg
        return [["density-mc", "-p", str(p), "-q", str(q), "-m", str(m),
                 "-k", str(k), "-r", str(r), "--samples", str(self.cli_samples),
                 "--seed", str(derive_seed(seed, "batch0"))]]

    def check_cli(self, outputs: list[dict], round0: Round) -> list:
        res = outputs[0]["result"]
        return [("mc.cli_matches_library",
                 (res["smooth_count"], res["delta_zero_count"]) == round0.fingerprint)]

    def check_rounds(self, rounds: list[Round]) -> tuple[list, dict]:
        """|estimate - exact| within band_z standard errors, over the pooled
        samples, when the run is above the independence threshold."""
        n = sum(r.units for r in rounds)
        est = sum(r.extra["smooth"] for r in rounds) / n
        exact = float(rounds[0].extra["exact"])
        z = (est - exact) / math.sqrt(exact * (1.0 - exact) / n)
        info = {"samples": n, "estimate": est, "exact": exact, "z": z,
                "threshold_warning": rounds[0].extra["warn"]}
        if rounds[0].extra["warn"]:
            return [], info
        return [("mc.estimate_in_band", abs(z) <= self.band_z)], info


# -- census -------------------------------------------------------------------------


class CensusWorkload(Workload):
    """The exact-answer ingredients: jet censuses, surjectivity ranks, and the
    README `zeta` and `density-exact` commands.  The censuses are exhaustive;
    the seed sets the order in which a round runs them."""

    unit = "tuples"
    rate_name = "tuples_per_s"
    expected_nonzero = _EVERY + _DETECTOR + _POINTS + _JET_MATRIX + (
        "zeta.zeta_table.s", "zeta.zeta_inverse_truncated.s",
        "linalg.rank_mod_p.s", "linalg.rank_mod_p.calls", "linalg.rank_mod_p.cells",
        "weier.singular_jets_oracle.s", "density.jet_census.self_s",
        "density.jet_census.tuples", "density.surjectivity_check.s")
    useful_degree = None  # every surjectivity row is used

    def __init__(self, name, cases, xcheck, surj, cycles, traced_rounds):
        self.name = name
        self.cases, self.xcheck, self.surj = cases, xcheck, surj
        self.cycles, self.traced_rounds = cycles, traced_rounds

    def _fields(self):
        return sorted({(p, q, e) for p, q, m, e in self.cases + [self.xcheck]})

    def cold_setup(self, seed: int) -> None:
        from elldens import gf
        for p, q, e in self._fields():
            gf.make_field(p, gf.prime_power(q)[1] * e)

    def round(self, seed: int, i: int) -> Round:
        """Every census case, in a seeded order; round 0 also runs the
        cross-checked census, the surjectivity ranks and the zeta values,
        which are checks and per-layer load but not part of tuples_per_s."""
        from elldens import density
        order = list(self.cases)
        random.Random(derive_seed(seed, f"order{i}")).shuffle(order)
        checks, fp = [], []
        tuples = 0
        t0 = time.perf_counter()
        for p, q, m, e in order:
            c = density.jet_census(p, q, m, e)
            tuples += c.total
            checks.append((f"census{(p, q, m, e)}", c.bad == c.expected_bad))
            fp.append(((p, q, m, e), c.total, c.bad))
        census_s = time.perf_counter() - t0
        extra = self._extras(checks, fp) if i == 0 else {}
        return Round(units=tuples, seconds=census_s, fingerprint=fp, checks=checks,
                     latencies=[census_s / tuples], extra=extra)

    def _extras(self, checks: list, fp: list) -> dict:
        from elldens import density, zeta
        p, q, m, e = self.xcheck
        xcheck_tuples = 0
        t0 = time.perf_counter()
        try:
            c = density.jet_census(p, q, m, e, cross_check=True)
            ok = c.bad == c.expected_bad
            xcheck_tuples = c.total
            fp.append(("xcheck", c.total, c.bad))
        except AssertionError:
            ok = False  # the two detectors disagreed
        xcheck_s = time.perf_counter() - t0
        checks.append((f"xcheck{self.xcheck}", ok))
        for cfg in self.surj:
            s = density.surjectivity_check(*cfg)
            checks.append((f"surj{cfg}", s.full_rank))
            fp.append(("surj", cfg, s.rank))
        table = zeta.zeta_table(2, 2, 3)
        trunc = zeta.zeta_inverse_truncated(table, 3, 3)
        checks.append(("zeta.exact_inverse", zeta.zeta_inverse_exact_Pm(2, 2, 3)
                       == Fraction(21, 64)))
        dens = density.exact_density(2, 2, 1)
        checks.append(("density_exact", dens == Fraction(7, 8) ** 7))
        fp.append(("zeta", str(trunc), str(dens)))
        return {"xcheck_tuples": xcheck_tuples, "xcheck_s": xcheck_s}

    def cli_commands(self, seed: int) -> list[list[str]]:
        return [["zeta", "-m", "2", "-q", "2", "-R", "3", "-s", "3"],
                ["census", "-p", "5", "-q", "5", "-m", "1", "-e", "1", "--cross-check"],
                ["surj", "-p", "2", "-q", "2", "-m", "2", "-k", "18", "-e", "1"],
                ["density-exact", "-q", "2", "-m", "2", "-r", "1"]]

    def check_cli(self, outputs: list[dict], round0: Round) -> list:
        z, c, s, d = (o["result"] for o in outputs)
        return [("cli.zeta", z["exact_inverse"] == "21/64"),
                ("cli.census", c["match"] and c["bad"] == c["expected_bad"]),
                ("cli.surj", s["full_rank"]),
                ("cli.density_exact", d["density"] == str(Fraction(7, 8) ** 7))]


# -- single data ----------------------------------------------------------------------


class DatumWorkload(Workload):
    """Seeded single-datum queries: build with `random_weierstrass` (which
    expands the discriminant), `singular_scan` to degree r, then
    `minimality_witness` with jmax = 1.  A round builds `reps` data of each
    shape (q, m, k, r), each with its own seed."""

    unit = "data"
    rate_name = "data_per_s"
    expected_nonzero = _EVERY + _DETECTOR + _POINTS + (
        "sections.Section.mul.s", "sections.Section.mul.calls",
        "sections.exact_divide.s", "sections.section_from_slots.calls",
        "base.jet_at.s", "base.jet_at.calls", "weier.discriminant.s",
        "weier.discriminant.calls", "weier.minimality_witness.s",
        "weier.weierstrass_from_slots.calls_per_sample",
        "density.singular_scan.self_s")
    useful_degree = None

    def __init__(self, name, shapes, cli_shapes, cycles, traced_rounds):
        self.name = name
        self.shapes = shapes  # ((q, m, k, r), reps)
        self.cli_shapes = cli_shapes
        self.cycles, self.traced_rounds = cycles, traced_rounds

    @staticmethod
    def _seed(seed: int, i: int, shape, j: int) -> int:
        return derive_seed(seed, f"datum{i}:{shape}:{j}")

    def cold_setup(self, seed: int) -> None:
        from elldens import base
        for (q, m, k, r), _ in self.shapes:
            _field(q)
            base.closed_points_up_to(m, q, r)

    def round(self, seed: int, i: int) -> Round:
        from elldens import density, weier
        checks, fp, lat = [], {}, []
        t_round = time.perf_counter()
        for shape, reps in self.shapes:
            q, m, k, r = shape
            fld = _field(q)
            for j in range(reps):
                t0 = time.perf_counter()
                w = weier.random_weierstrass(m, k, fld, seed=self._seed(seed, i, shape, j))
                hits = density.singular_scan(w, r)
                u = weier.minimality_witness(w, 1)
                lat.append(time.perf_counter() - t0)
                for h in hits:
                    checks.append(("datum.witness_verifies",
                                   weier.jacobian_vanishes(h.jets, h.x, h.y)))
                fp[(shape, j)] = (_witnesses(hits), None if u is None else u.to_obj())
        dt = time.perf_counter() - t_round
        return Round(units=len(lat), seconds=dt, fingerprint=fp, checks=checks,
                     latencies=lat)

    def cli_commands(self, seed: int) -> list[list[str]]:
        cmds = []
        for q, m, k, r in self.cli_shapes:
            s = str(self._seed(seed, 0, (q, m, k, r), 0))
            src = ["--random", "-q", str(q), "-m", str(m), "-k", str(k), "--seed", s]
            cmds.append(["scan"] + src + ["-r", str(r)])
            cmds.append(["minimal"] + src + ["--jmax", "1"])
        return cmds

    def check_cli(self, outputs: list[dict], round0: Round) -> list:
        checks = []
        for t, shape in enumerate(self.cli_shapes):
            scan, minimal = outputs[2 * t]["result"], outputs[2 * t + 1]["result"]
            wits, u = round0.fingerprint[(shape, 0)]
            cli_wits = tuple((tuple(h["point"]["coords"]), h["point"]["degree"],
                              h["point"]["chart"], h["x"], h["y"])
                             for h in scan["witnesses"])
            checks.append((f"cli.scan{shape}", cli_wits == wits))
            checks.append((f"cli.minimal{shape}", minimal["minimal"] == (u is None)))
        return checks


def _witnesses(hits) -> tuple:
    return tuple((tuple(c.idx for c in h.point.coords), h.point.degree,
                  h.point.chart, h.x.idx, h.y.idx) for h in hits)


# -- the registry ------------------------------------------------------------------------

_ACCEPTANCE1 = [(5, 5, 1, 1), (5, 5, 2, 1), (2, 2, 1, 1), (2, 2, 2, 1),
                (2, 2, 1, 2), (3, 3, 1, 1), (3, 3, 2, 1)]
_ACCEPTANCE3 = [(5, 5, 1, 12, 1), (2, 2, 2, 18, 1), (3, 3, 2, 18, 1)]
_ACCEPTANCE5 = [(p, m, 1, r) for p in (2, 3, 5) for m, r in ((1, 2), (2, 1))]


def workloads(tiny: bool = False) -> dict:
    """The workloads by name; `tiny` shrinks every input (same code paths)
    for the self-test."""
    if tiny:
        wl = [
            McWorkload("mc_ref", 2, 2, 1, 12, 1, cli_samples=20, batch=20,
                       cycles=2, traced_rounds=2),
            McWorkload("mc_deep", 5, 5, 1, 24, 2, cli_samples=30, batch=20,
                       cycles=2, traced_rounds=2),
            CensusWorkload("census", [(5, 5, 1, 1), (2, 2, 1, 1), (3, 3, 1, 1)],
                           xcheck=(2, 2, 1, 1), surj=[(5, 5, 1, 12, 1)],
                           cycles=2, traced_rounds=1),
            DatumWorkload("datum", [((5, 1, 1, 2), 2), ((2, 2, 1, 1), 2), ((4, 2, 1, 1), 1)],
                          cli_shapes=[(5, 1, 1, 2)], cycles=2, traced_rounds=1),
        ]
    else:
        wl = [
            McWorkload("mc_ref", 2, 2, 2, 18, 1, cli_samples=200, batch=100,
                       cycles=3, traced_rounds=21),
            McWorkload("mc_deep", 5, 5, 1, 36, 3, cli_samples=200, batch=100,
                       cycles=5, traced_rounds=11),
            CensusWorkload("census", _ACCEPTANCE1 + [(2, 4, 1, 1)],
                           xcheck=(5, 5, 2, 1), surj=_ACCEPTANCE3,
                           cycles=5, traced_rounds=1),
            DatumWorkload("datum", [(s, 20) for s in _ACCEPTANCE5]
                          + [((4, 2, 4, 2), 1), ((2, 2, 9, 2), 1)],
                          cli_shapes=[(5, 1, 1, 2), (4, 2, 4, 2)],
                          cycles=4, traced_rounds=1),
        ]
    return {w.name: w for w in wl}
