"""Densities of everywhere-smooth fibrations: exact products, jet censuses,
surjectivity rank checks and a seeded Monte-Carlo estimator.

The exact density of fibrations smooth over all closed points of degree <= r
is the truncated Euler product prod_{e<=r} (1 - q^{-(m+1)e})^{a_e}.  The jet
census verifies the per-point ingredient by brute force: among all jet tuples
of the varying coefficient forms at a point with residue field F_{q^e},
exactly a q^{-(m+1)e} fraction admits a singular fiber point.

Monte-Carlo runs draw coefficient forms uniformly (one PCG64 stream per
sample, seeded by a stable 64-bit hash of (master_seed, index)), push the
coefficient vectors through precomputed F_p jet matrices, and apply the
closed-form singularity detector at every closed point of degree <= r.
Samples whose discriminant form is identically zero are counted as
not-smooth and tallied separately.
"""
from __future__ import annotations

import hashlib
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import zeta as _zeta
from .base import (DEFAULT_ENUM_CAP, ClosedPoint, FeasibilityError, Jet,
                   closed_points_up_to, jet_space_map)
from .gf import make_field, prime_power
from .linalg import rank_mod_p
from .weier import (SingularityWitness, WeierstrassData, WeierstrassJets,
                    discriminant_value, section_degrees,
                    singular_jets_closed_form, singular_jets_oracle,
                    singular_over_closed_form, varying_indices,
                    weierstrass_from_slots)

REPORT_FORMAT_VERSION = 1

_DELTA_PROBE_DEGREE = 3  # discriminant values are probed at points up to here


def sample_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-sample seed derived from (master_seed, index)."""
    h = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


# -- jet census ------------------------------------------------------------------


def expected_bad_count(p: int, q: int, m: int, e: int) -> int:
    """Number of jet tuples admitting a singular fiber point, from the
    per-characteristic case counts; always |F_{q^e}|^{c(m+1)} with c = 1, 2, 3
    for p > 3, p = 3, p = 2."""
    size = q ** e
    c = {2: 3, 3: 2}.get(p, 1)
    return size ** (c * (m + 1))


@dataclass(frozen=True)
class JetCensus:
    p: int
    q: int
    m: int
    e: int
    g: int          # number of varying coefficient forms
    total: int
    bad: int
    expected_bad: int

    @property
    def match(self) -> bool:
        return self.bad == self.expected_bad

    @property
    def bad_fraction(self) -> Fraction:
        return Fraction(self.bad, self.total)


def jet_census(p: int, q: int, m: int, e: int,
               cap: int | None = None, cross_check: bool = False) -> JetCensus:
    """Exhaustively classify every jet tuple at a degree-e point as admitting
    a singular fiber point or not.

    With cross_check=True every tuple is also scanned by the exhaustive
    fiber oracle and any disagreement with the closed form raises.
    """
    pp, r = prime_power(q)
    if pp != p:
        raise ValueError(f"q={q} is not a power of p={p}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    fld = make_field(p, r * e)
    g = len(varying_indices(p))
    total = fld.size ** (g * (m + 1))
    if total > cap:
        raise FeasibilityError(
            f"jet census needs {total} tuples > cap {cap}"
        )
    elems = [fld.from_index(i) for i in range(fld.size)]
    zero_jet = Jet(value=fld.zero, gradient=(fld.zero,) * m)
    vary = varying_indices(p)
    bad = 0
    width = m + 1
    for tup in itertools.product(elems, repeat=g * width):
        jets = {}
        for s_idx, i in enumerate(vary):
            chunk = tup[s_idx * width:(s_idx + 1) * width]
            jets[i] = Jet(value=chunk[0], gradient=chunk[1:])
        J = WeierstrassJets(
            field=fld,
            a1=jets.get(1, zero_jet), a2=jets.get(2, zero_jet),
            a3=jets.get(3, zero_jet), a4=jets.get(4, zero_jet),
            a6=jets.get(6, zero_jet),
        )
        hit = singular_jets_closed_form(J)
        if cross_check:
            scan = singular_jets_oracle(J)
            if (hit is None) != (scan is None):
                raise AssertionError(
                    f"closed form and fiber scan disagree on jets {tup}"
                )
        if hit is not None:
            bad += 1
    return JetCensus(p=p, q=q, m=m, e=e, g=g, total=total, bad=bad,
                     expected_bad=expected_bad_count(p, q, m, e))


# -- surjectivity ------------------------------------------------------------------


@dataclass(frozen=True)
class SurjectivityReport:
    p: int
    q: int
    m: int
    k: int
    e: int
    rank: int
    expected_rank: int
    rows: int
    cols: int

    @property
    def full_rank(self) -> bool:
        return self.rank == self.expected_rank


def surjectivity_check(p: int, q: int, m: int, k: int, e: int) -> SurjectivityReport:
    """Rank of the joint jet evaluation map at the first degree-e closed
    point, over F_p after restriction of scalars.  Full rank means jets of
    the coefficient forms equidistribute at that point."""
    pp, r = prime_power(q)
    if pp != p:
        raise ValueError(f"q={q} is not a power of p={p}")
    pts = [P for P in closed_points_up_to(m, q, e) if P.degree == e]
    P = pts[0]
    degrees = section_degrees(p, k)
    jm = jet_space_map(degrees, P)
    rank = rank_mod_p(jm.matrix, p)
    g = len(degrees)
    return SurjectivityReport(
        p=p, q=q, m=m, k=k, e=e, rank=rank,
        expected_rank=g * e * (m + 1) * r, rows=jm.rows, cols=jm.cols,
    )


# -- exact density -----------------------------------------------------------------


def exact_density(q: int, m: int, r: int) -> Fraction:
    """prod_{e<=r} (1 - q^{-(m+1)e})^{a_e}: the exact density of coefficient
    tuples giving a total space smooth over every point of degree <= r,
    in the equidistributed (large-k) regime."""
    table = _zeta.zeta_table(m, q, r)
    return _zeta.zeta_inverse_truncated(table, m + 1, r)


# -- Monte-Carlo -------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    p: int
    q: int
    m: int
    k: int
    r: int
    samples: int
    master_seed: int
    threads: int
    smooth_count: int
    delta_zero_count: int
    estimate: float
    std_error: float
    exact: Fraction
    threshold_warning: bool
    wall_seconds: float

    def to_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "format_version": REPORT_FORMAT_VERSION,
            "config": {
                "command": "density-mc",
                "p": self.p, "q": self.q, "m": self.m, "k": self.k,
                "r": self.r, "samples": self.samples,
                "seed": self.master_seed, "threads": self.threads,
            },
            "result": {
                "smooth_count": self.smooth_count,
                "delta_zero_count": self.delta_zero_count,
                "estimate": self.estimate,
                "std_error": self.std_error,
                "exact_density": f"{self.exact.numerator}/{self.exact.denominator}",
                "threshold_warning": self.threshold_warning,
            },
        }
        if include_timing:
            obj["timing"] = {"wall_seconds": self.wall_seconds}
        return obj


class _McSetup:
    """Precomputed jet/value matrices for one (p, q, m, k, r) configuration."""

    def __init__(self, p: int, q: int, m: int, k: int, r: int):
        self.p, self.q, self.m, self.k, self.r = p, q, m, k, r
        _, rr = prime_power(q)
        self.field = make_field(p, rr)
        self.degrees = section_degrees(p, k)
        self.vary = varying_indices(p)
        self.g = len(self.degrees)
        probe_deg = max(r, min(_DELTA_PROBE_DEGREE, 12 * k))
        pts = closed_points_up_to(m, q, probe_deg)
        self.jet_points = [P for P in pts if P.degree <= r]
        self.probe_points = pts  # all of them provide discriminant values
        jms = [jet_space_map(self.degrees, P) for P in pts]
        self.total_rows = sum(jm.rows for jm in jms)
        self.slots = jms[0].cols
        # each point's block is written straight into the float64 matrix, and
        # its map keeps a view of those rows so the integer block is freed
        self.matrix = np.empty((self.total_rows, self.slots))
        self.jet_offsets = []
        off = 0
        for P, jm in zip(pts, jms):
            rows = self.matrix[off:off + jm.rows]
            rows[...] = jm.matrix
            self.jet_offsets.append((P, off, replace(jm, matrix=rows)))
            off += jm.rows

    def jets_from_row(self, coords: np.ndarray, P: ClosedPoint, off: int,
                      jm) -> WeierstrassJets:
        res = P.field
        n = res.n
        m = P.m
        jets = {}
        for s_idx, i in enumerate(self.vary):
            entries = []
            for entry in range(m + 1):
                start = off + jm.row_index(s_idx, entry, 0)
                entries.append(res.elem(tuple(int(v) for v in coords[start:start + n])))
            jets[i] = Jet(value=entries[0], gradient=tuple(entries[1:]))
        zero_jet = Jet(value=res.zero, gradient=(res.zero,) * m)
        return WeierstrassJets(
            field=res,
            a1=jets.get(1, zero_jet), a2=jets.get(2, zero_jet),
            a3=jets.get(3, zero_jet), a4=jets.get(4, zero_jet),
            a6=jets.get(6, zero_jet),
        )


@lru_cache(maxsize=4)
def _mc_setup(p: int, q: int, m: int, k: int, r: int) -> _McSetup:
    return _McSetup(p, q, m, k, r)


def _delta_zero(setup: _McSetup, coords: np.ndarray, slots: np.ndarray) -> bool:
    """Exact test for an identically-zero discriminant form.

    Nonzero discriminant value at any probe point settles it cheaply; only
    when every probe vanishes is the discriminant form expanded exactly.
    """
    for P, off, jm in setup.jet_offsets:
        J = setup.jets_from_row(coords, P, off, jm)
        if discriminant_value(*J.values()):
            return False
    w = weierstrass_from_slots(setup.m, setup.k, setup.field, slots)
    return w.delta.is_zero


def _mc_range(p: int, q: int, m: int, k: int, r: int, master_seed: int,
              lo: int, hi: int, chunk: int = 512) -> tuple[int, int]:
    """(smooth_count, delta_zero_count) over sample indices [lo, hi)."""
    setup = _mc_setup(p, q, m, k, r)
    smooth = 0
    delta_zero = 0
    jet_blocks = [(P, off, jm) for P, off, jm in setup.jet_offsets
                  if P.degree <= r]
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        block = np.empty((stop - start, setup.slots), dtype=np.uint8)
        for i in range(start, stop):
            rng = np.random.Generator(np.random.PCG64(sample_seed(master_seed, i)))
            block[i - start] = rng.integers(0, p, size=setup.slots, dtype=np.uint8)
        coords = (block.astype(np.float64) @ setup.matrix.T) % p
        coords = coords.astype(np.int64)
        for row_i in range(stop - start):
            row = coords[row_i]
            if _delta_zero(setup, row, block[row_i]):
                delta_zero += 1
                continue  # counted as not-smooth
            ok = True
            for P, off, jm in jet_blocks:
                J = setup.jets_from_row(row, P, off, jm)
                if singular_jets_closed_form(J) is not None:
                    ok = False
                    break
            if ok:
                smooth += 1
    return smooth, delta_zero


def mc_density(p: int, q: int, m: int, k: int, r: int, samples: int,
               master_seed: int, threads: int = 1) -> DensityReport:
    """Seeded Monte-Carlo estimate of the smooth-over-degree-<=r density.

    Reports are bit-identical for a fixed master_seed regardless of thread
    count; per-sample streams are independent of scheduling.
    """
    t0 = time.monotonic()
    pp, _ = prime_power(q)
    if pp != p:
        raise ValueError(f"q={q} is not a power of p={p}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    warn = k < (6 * m + 6) * r
    exact = exact_density(q, m, r)
    if threads == 1 or samples < 2 * threads:
        smooth, dz = _mc_range(p, q, m, k, r, master_seed, 0, samples)
    else:
        _mc_setup(p, q, m, k, r)  # warm before fork so children share it
        bounds = np.linspace(0, samples, threads + 1, dtype=int)
        work = [(p, q, m, k, r, master_seed, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        smooth = dz = 0
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for s, d in pool.map(_mc_worker, work):
                smooth += s
                dz += d
    est = smooth / samples
    se = float(np.sqrt(est * (1.0 - est) / samples))
    return DensityReport(
        p=p, q=q, m=m, k=k, r=r, samples=samples, master_seed=master_seed,
        threads=threads, smooth_count=smooth, delta_zero_count=dz,
        estimate=est, std_error=se, exact=exact, threshold_warning=warn,
        wall_seconds=time.monotonic() - t0,
    )


def _mc_worker(args) -> tuple[int, int]:
    return _mc_range(*args)


# -- scanning ------------------------------------------------------------------------


def singular_scan(w: WeierstrassData, r: int,
                  cap: int | None = None) -> list[SingularityWitness]:
    """All closed points of degree <= r with a singular fiber point, each with
    its verified witness (x, y)."""
    out = []
    for P in closed_points_up_to(w.m, w.field.size, r, cap=cap):
        wit = singular_over_closed_form(w, P)
        if wit is not None:
            out.append(wit)
    return out
