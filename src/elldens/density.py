"""Densities of everywhere-smooth fibrations: exact products, jet censuses,
surjectivity rank checks, a seeded Monte-Carlo estimator and the singular
scan of one datum.  Every pass over point blocks lives here; ``weier``
answers for a batch of jets or for a datum.

The exact density of fibrations smooth over all closed points of degree <= r
is the truncated Euler product prod_{e<=r} (1 - q^{-(m+1)e})^{a_e}.  The jet
census verifies the per-point ingredient by brute force: among all jet tuples
of the varying coefficient forms at a point with residue field F_{q^e},
exactly a q^{-(m+1)e} fraction admits a singular fiber point.

The census walks the tuple space as value tuples (g base-Q digits) times
gradient tuples (g*m digits): a detector call pairs (V, 1) value rows with
(1, W) gradient rows, so only the base-direction tests run once per tuple.
Its cross-check compares each call with the fiber-scan oracle on its batch.

Monte-Carlo runs draw coefficient forms uniformly (one PCG64 stream per
sample, seeded by a stable 64-bit hash of (master_seed, index)) in chunks
of up to ``_MC_CHUNK`` samples whose slots fit ``_MC_BUDGET`` bytes:
:func:`~elldens.weier.weierstrass_slot_rows` computes NumPy's per-seed
recipe (SeedSequence, PCG64, bounded integers) for a whole chunk at once,
bit for bit, so a sample still replays alone through
:func:`~elldens.weier.weierstrass_slots` or
:func:`~elldens.weier.random_weierstrass`.  The runs take a chunk's jets at
the closed points of each degree <= r as scans take one datum's, from the
same memo of budget-sized point blocks (:func:`~elldens.base.scan_blocks`; a
block whose kernel the memo does not keep is rebuilt by
:func:`~elldens.base.jet_space_map` once per call and reused by each of its
chunks): one :func:`~elldens.base.jet_at` product per block, taken for the
samples either test still holds, each form's slots against its own jet rows
only (stored as F_p digits), multiplied in float32 wherever that is exact,
its jets returned as element indices.  A chunk walks the blocks once, and
each block's jets are dropped before the next block's product.  The batched
detector and the discriminant test (:func:`~elldens.weier.delta_vanishes`)
run once per (chunk, block), each on the samples it still holds: those
smooth so far, and those whose discriminant values have all vanished so
far; both read a small residue field's value table in ``weier``.  Samples
whose discriminant form is identically zero are counted as not-smooth and
tallied separately: a nonzero discriminant value at a point of degree <= r
settles delta != 0, unsettled samples go on through the discriminant values
at the points of the next degrees, one degree at a time, from the same memo
(its degree-e entry, built the first time a sample needs it; the entries of
lower degree are the very blocks the run applied), and only when every
value vanishes is the form expanded.

The singular scan of one datum takes one jet product and one detector
call per point block, and builds each witness from its hit lane's index
rows, as single-point :class:`~elldens.weier.WeierstrassJets`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import zeta as _zeta
from .base import (_MC_BUDGET, DEFAULT_ENUM_CAP, closed_points_up_to, jet_at, jet_space_map,
                   scan_blocks)
from .errors import FeasibilityError
from .gf import FieldMismatchError, is_prime, make_field, prime_power
from .linalg import rank_mod_p
from .weier import (_CENSUS_BLOCK, SingularityWitness, WeierstrassData, WeierstrassJets,
                    delta_vanishes, jets_from_indices, section_degrees,
                    singular_jets_closed_form, singular_jets_oracle,
                    varying_indices, weierstrass_from_slots, weierstrass_slot_rows)

_DELTA_PROBE_DEGREE = 3  # discriminant values are probed at points up to here
# rational points a probe degree may enumerate: a probe stands in for exact
# expansions of a few samples, so it must not cost more than they do
_PROBE_CAP = 1 << 15
_MC_CHUNK = 512  # Monte-Carlo samples drawn and tested together


def sample_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit per-sample seed derived from (master_seed, index)."""
    h = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _degree_over(p: int, q: int) -> int:
    """r with q = p^r; ValueError unless p is prime and q a power of it."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    pp, r = prime_power(q)
    if pp != p:
        raise ValueError(f"q={q} is not a power of p={p}")
    return r


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

    Each chunk of W <= ``_CENSUS_BLOCK`` gradient tuples (the detector's
    lane budget, 2^14) meets the value tuples V = ``_CENSUS_BLOCK // W`` at
    a time, one detector call each on (V, 1) values and (1, W) gradients,
    which the detector reads on their own axes: the acceptance-1 cases take
    one call each but for (3,3,2,1), two, and the 2^16-tuple (2,2,1,2), four.
    With cross_check=True the exhaustive fiber oracle takes each call's batch
    too, and a tuple whose verdict or witness differs raises, naming its digits.
    """
    r = _degree_over(p, q)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    g = len(varying_indices(p))
    # the census walks q^exponent tuples, and q^exponent > cap wherever
    # 2^exponent is; the field's tables, ~q^e entries, wait for the cap
    exponent = e * g * (m + 1)
    if exponent >= cap.bit_length() or q ** exponent > cap:
        # e and m come from outside, so their product may be too long to print
        need = f"{q}^{exponent} tuples >" if exponent < 1 << 64 else "more tuples than"
        raise FeasibilityError(f"jet census needs {need} cap {cap}")
    total = q ** exponent
    fld = make_field(p, r * e)
    Q = fld.size

    def digits(start: int, stop: int, width: int) -> np.ndarray:
        """Base-Q digits of start..stop-1, first digit most significant."""
        out = np.arange(start, stop)[:, None] // Q ** np.arange(width - 1, -1, -1)
        out %= Q  # in place: a chunk's digits are one int64 array
        return out

    grads = Q ** (g * m)
    W = min(grads, _CENSUS_BLOCK)
    V = _CENSUS_BLOCK // W
    values = digits(0, Q ** g, g)[:, None]  # (Q^g, 1, g)
    bad = 0
    for w0 in range(0, grads, W):
        gd = digits(w0, min(w0 + W, grads), g * m).reshape(1, -1, g, m)
        for v0 in range(0, len(values), V):
            vd = values[v0:v0 + V]
            J = WeierstrassJets(fld, vd, gd)
            hit = singular_jets_closed_form(J)
            bad += int(np.count_nonzero(hit.mask))
            if cross_check:
                ref = singular_jets_oracle(J)
                moved = (hit.x.idx != ref.x.idx) | (hit.y.idx != ref.y.idx)
                for i, j in np.argwhere((hit.mask != ref.mask) | hit.mask & moved)[:1]:
                    row = np.concatenate((vd[i, 0, :, None], gd[0, j]), axis=1)
                    raise AssertionError(
                        f"closed form ({'singular' if hit.mask[i, j] else 'smooth'}) and "
                        f"fiber scan disagree on jets {tuple(row.ravel().tolist())}")
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
    point, over F_p after restriction of scalars: the sum of its per-form
    blocks' ranks, the map being block-diagonal.  Full rank means jets of
    the coefficient forms equidistribute at that point."""
    r = _degree_over(p, q)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    pts = [P for P in closed_points_up_to(m, q, e) if P.degree == e]
    P = pts[0]
    degrees = section_degrees(p, k)
    block = jet_space_map(degrees, (P,))
    rank = sum(rank_mod_p(b, p) for b in block.kernel.blocks)
    g = len(degrees)
    return SurjectivityReport(
        p=p, q=q, m=m, k=k, e=e, rank=rank,
        expected_rank=g * e * (m + 1) * r, rows=block.rows, cols=block.cols,
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
    smooth_count: int
    delta_zero_count: int
    estimate: float
    std_error: float
    exact: Fraction
    threshold_warning: bool


def _rows_of(field, jets: np.ndarray, live: np.ndarray, rows: np.ndarray) -> WeierstrassJets:
    """The batch of jets of `rows`, a sorted subset of the sorted `live`,
    from `jets`, the jets of `live` (element indices of `field`)."""
    if len(rows) < len(live):
        jets = jets[np.searchsorted(live, rows)]
    return jets_from_indices(field, jets)


def _delta_zero(blocks, slots: np.ndarray, live: np.ndarray, k: int, r: int) -> np.ndarray:
    """Per sample (row of `slots`), whether its discriminant form is
    identically zero, given `live`: the samples whose discriminant values
    vanish at every point of `blocks` (degrees 1..r, twist degree k), the
    others being settled.

    Live samples go on through the degree-e blocks of ``scan_blocks(m, q,
    e, ...)`` for the degrees e above r up to ``_DELTA_PROBE_DEGREE``, one
    degree at a time; the memo holds one entry per point degree, so the
    blocks below e that it skips are those the run has read, not copies.
    Only when every probe value vanishes too is the form expanded exactly.
    Probing stops at the first degree whose listing passes ``_PROBE_CAP``
    rational points; the expansion decides the rest.
    """
    P = blocks[0].point
    for e in range(r + 1, _DELTA_PROBE_DEGREE + 1):
        if not live.size:
            break
        try:
            probe = scan_blocks(P.m, P.q, e, blocks[0].degrees, cap=_PROBE_CAP)
        except FeasibilityError:
            break
        for b in probe:
            if b.point.degree == e and live.size:
                J = jets_from_indices(b.field, jet_at(slots[live], b))
                live = live[delta_vanishes(J).all(axis=1)]
    zero = np.zeros(len(slots), dtype=bool)
    for i in live:
        zero[i] = weierstrass_from_slots(P.m, k, P.emb.src, slots[i]).delta.is_zero
    return zero


def mc_density(p: int, q: int, m: int, k: int, r: int, samples: int,
               master_seed: int) -> DensityReport:
    """Seeded Monte-Carlo estimate of the smooth-over-degree-<=r density.

    Sample i draws from its own stream, seeded by ``sample_seed(master_seed,
    i)`` (one call per sample, in index order), so a report depends on the
    configuration, the sample count and the master seed alone; samples are
    drawn and tested ``_MC_CHUNK`` at a time, or fewer where that many
    samples' slots would pass ``_MC_BUDGET`` bytes (at least one).  A
    chunk's slots come from one
    :func:`~elldens.weier.weierstrass_slot_rows` call, row i being
    ``weierstrass_slots(m, k, F_q, sample_seed(master_seed, i))``.
    ``threshold_warning`` is ``k < (6m+6) r``: a heuristic for too small a
    twist degree, not a computed independence test.
    """
    _degree_over(p, q)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    warn = k < (6 * m + 6) * r
    exact = exact_density(q, m, r)
    # every kernel is applied to every chunk: one the memo does not keep is
    # built here, once for this call
    blocks = [b if b.kernel is not None else jet_space_map(b.degrees, b.points)
              for b in scan_blocks(m, q, r, section_degrees(p, k))]
    cols = blocks[0].cols
    smooth = 0
    delta_zero = 0
    # draws land in the kernels' dtype, in one buffer for every chunk
    dtype = np.dtype(blocks[0].kernel.dtype)
    chunk = max(1, min(_MC_CHUNK, _MC_BUDGET // (cols * dtype.itemsize)))
    buffer = np.empty((min(chunk, samples), cols), dtype=dtype)
    for start in range(0, samples, chunk):
        slots = buffer[:min(chunk, samples - start)]
        weierstrass_slot_rows(p, cols, [sample_seed(master_seed, i)
                                         for i in range(start, start + len(slots))], slots)
        # the samples whose delta values all vanish so far, and those smooth so far
        zero = ok = np.arange(len(slots))
        for b in blocks:
            if not (zero.size or ok.size):
                break
            # the product only for the rows either test still reads
            held = np.zeros(len(slots), dtype=bool)
            held[zero] = held[ok] = True
            live = np.flatnonzero(held)
            jets = jet_at(slots if len(live) == len(slots) else slots[live], b)
            zero = zero[delta_vanishes(_rows_of(b.field, jets, live, zero)).all(axis=1)]
            ok = ok[~singular_jets_closed_form(_rows_of(b.field, jets, live, ok)).mask.any(axis=1)]
        dz = _delta_zero(blocks, slots, zero, k, r)
        delta_zero += int(np.count_nonzero(dz))
        # draws with delta == 0 count as not-smooth
        smooth += int(np.count_nonzero(~dz[ok]))
    est = smooth / samples
    se = float(np.sqrt(est * (1.0 - est) / samples))
    return DensityReport(
        p=p, q=q, m=m, k=k, r=r, samples=samples, master_seed=master_seed,
        smooth_count=smooth, delta_zero_count=delta_zero,
        estimate=est, std_error=se, exact=exact, threshold_warning=warn,
    )


# -- scanning ------------------------------------------------------------------------


def singular_scan(w: WeierstrassData, r: int,
                  cap: int | None = None) -> list[SingularityWitness]:
    """All closed points of degree <= r with a singular fiber point, in
    listing order, each with its witness (x, y), re-verified against its own
    jets: per block of :func:`~elldens.base.scan_blocks` (``cap`` bounds its
    enumeration), one :func:`~elldens.base.jet_at` product and one detector
    call.  The points live over ``make_field``'s field, so a datum over
    another modulus raises FieldMismatchError."""
    F = w.field
    if F != make_field(F.p, F.n):
        raise FieldMismatchError("datum's field is not the points' base field")
    hits = []
    for b in scan_blocks(w.m, F.size, r, section_degrees(F.p, w.k), cap):
        J = jets_from_indices(b.field, jet_at(w.slots(), b))
        hit = singular_jets_closed_form(J)
        hits += [SingularityWitness(point=b.points[i], x=hit.x[i], y=hit.y[i],
                                    jets=WeierstrassJets(b.field, J.values[i], J.gradients[i]))
                 for i in np.flatnonzero(hit.mask).tolist()]
    return hits
