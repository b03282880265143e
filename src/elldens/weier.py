"""Weierstrass fibrations over P^m and singular points of their total spaces.

The data of a fibration is a tuple of coefficient forms (a1, a2, a3, a4, a6)
of degrees (k, 2k, 3k, 4k, 6k) cutting out, on the affine fiber chart,

    F(x, y) = y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6.

Which coefficients may be nonzero depends on the characteristic (a completed
model exists in every fiber):

    p = 2:  a2 = 0            (a1, a3, a4, a6 vary)
    p = 3:  a1 = a3 = 0       (a2, a4, a6 vary)
    p > 3:  a1 = a2 = a3 = 0  (a4, a6 vary)

A fiber point over a closed point P is a singular point of the total space
iff F and all m+2 partials (fiber coordinates x, y plus the m base
directions) vanish there; the base-direction conditions only see the
first-order jets of the coefficient forms at P.  Two independent detectors
are provided: a closed-form solver for the candidate (x, y) per
characteristic, and an exhaustive scan over the whole affine fiber.  The
fiber point at infinity (0:1:0) is never singular (the Z-partial there is
Y^2 = 1) and is asserted, never searched.

The closed-form detector takes batches only: jets whose entries are
:class:`~elldens.gf.FieldArray` s (many points or jet tuples over one
residue field) give a mask and candidate arrays, with the characteristic's
branches taken as masks.  The entries need only broadcast: the candidate
and the F, dF/dx, dF/dy tests run in the values' shape, the base-direction
tests in the joint shape, so a census pairing (V, 1) values with (1, W)
gradients solves once per value tuple.  Scans and single points reach it
the same way, through the jets of a datum at the points of one
:class:`~elldens.base.PointBlock` (a one-point block for a single point).
The discriminant, the fiber equation and the vanishing conditions are
written once with ring operations, so they run on forms, on FieldElems and
on FieldArrays.  The oracle and the re-verification of a
:class:`SingularityWitness` stay scalar.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .base import (_ROW_BUDGET, ClosedPoint, FeasibilityError, Jet, PointBlock, jet_at,
                   scan_blocks)
from .gf import FieldArray, FieldCtx, FieldElem, FieldMismatchError, make_field
from .sections import (KeyLayout, Section, TermTable, dim_space, exact_divide, monomials,
                       section_from_slots, section_slots)

WEIER_FORMAT_VERSION = 1
# candidate forms a minimality search may try, counted over the degrees left
# after the coordinate-line bound (none for a certified datum); one costs
# ~45 us (P^2 over F_2, k = 4), so the default search stays within a minute
MINIMALITY_CAP = 1 << 20

_INDICES = (1, 2, 3, 4, 6)


def varying_indices(p: int) -> tuple[int, ...]:
    """Which of a1, a2, a3, a4, a6 may be nonzero in characteristic p."""
    if p == 2:
        return (1, 3, 4, 6)
    if p == 3:
        return (2, 4, 6)
    return (4, 6)


def section_degrees(p: int, k: int) -> tuple[int, ...]:
    """Degrees i*k of the varying coefficient forms, in index order."""
    return tuple(i * k for i in varying_indices(p))


class WeierstrassData:
    """An immutable fibration datum; the discriminant form is computed at
    construction time and cached, the slot vector on first use."""

    __slots__ = ("m", "k", "field", "a1", "a2", "a3", "a4", "a6", "delta", "_slots")

    def __init__(self, m: int, k: int, field: FieldCtx,
                 a1: Section, a2: Section, a3: Section, a4: Section, a6: Section):
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        allowed = varying_indices(field.p)
        secs = {1: a1, 2: a2, 3: a3, 4: a4, 6: a6}
        for i, s in secs.items():
            if s.m != m or s.field != field:
                raise ValueError(f"a{i} does not live on P^{m} over the given field")
            if s.d != i * k:
                raise ValueError(f"a{i} must have degree {i * k}, got {s.d}")
            if i not in allowed and not s.is_zero:
                raise ValueError(
                    f"a{i} must vanish identically in characteristic {field.p}"
                )
        self.m, self.k, self.field = m, k, field
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.delta = discriminant(self)
        self._slots = None

    def sections(self) -> dict[int, Section]:
        return {1: self.a1, 2: self.a2, 3: self.a3, 4: self.a4, 6: self.a6}

    def slots(self) -> np.ndarray:
        """The flat F_p slot vector of the varying forms, inverse to
        :func:`weierstrass_from_slots` (same layout)."""
        if self._slots is None:
            secs = self.sections()
            self._slots = np.concatenate([section_slots(secs[i])
                                          for i in varying_indices(self.field.p)])
            self._slots.flags.writeable = False
        return self._slots

    def __repr__(self):
        return (
            f"WeierstrassData(m={self.m}, k={self.k}, "
            f"F_{self.field.p}^{self.field.n})"
        )


def discriminant(w: WeierstrassData) -> Section:
    """The discriminant form, of degree 12k: :func:`discriminant_value` on
    the :class:`~elldens.sections.TermTable` s of a1..a6 under one key
    layout with base 12k + 1 per variable (every intermediate has degree
    <= 12k), turned into a Section once, at the end."""
    layout = KeyLayout.of((12 * w.k + 1,) * w.m, w.m, 12 * w.k)
    tables = (TermTable.of(s, layout) for s in (w.a1, w.a2, w.a3, w.a4, w.a6))
    delta = discriminant_value(*tables).section()
    if delta.d != 12 * w.k and not delta.is_zero:
        raise AssertionError("discriminant degree bookkeeping failed")
    return delta


def discriminant_value(a1, a2, a3, a4, a6):
    """The discriminant from the coefficients, via the b-invariants:

    b2 = a1^2 + 4 a2,  b4 = 2 a4 + a1 a3,  b6 = a3^2 + 4 a6,
    b8 = a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2,
    delta = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6.

    Ring operations only: term tables of the coefficient forms give the
    discriminant's table, FieldElem values one fiber's discriminant,
    FieldArray values a batch.  a1^2, a3^2 and a1 a3 are formed once each,
    so a call makes 15 ring products.
    """
    a11, a13, a33 = a1 * a1, a1 * a3, a3 * a3
    b2 = a11 + 4 * a2
    b4 = 2 * a4 + a13
    b6 = a33 + 4 * a6
    b8 = a11 * a6 + 4 * a2 * a6 - a13 * a4 + a2 * a33 - a4 * a4
    return -(b2 * b2 * b8) - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * (b2 * b4 * b6)


@dataclass(frozen=True)
class WeierstrassJets:
    """First-order jets of all five coefficient forms: at one closed point
    with FieldElem entries, or at a batch of points or jet tuples over one
    residue field with FieldArray entries that broadcast against each other
    (see :func:`jets_from_indices`)."""

    field: FieldCtx
    a1: Jet
    a2: Jet
    a3: Jet
    a4: Jet
    a6: Jet

    def values(self):
        return (self.a1.value, self.a2.value, self.a3.value,
                self.a4.value, self.a6.value)

    @property
    def shape(self) -> tuple[int, ...]:
        """The joint broadcast shape of the batch's entries."""
        return np.broadcast_shapes(*(a.shape for jet in (self.a1, self.a2, self.a3,
                                                         self.a4, self.a6)
                                     for a in (jet.value, *jet.gradient)))

    def lanes(self, where: np.ndarray | None = None) -> Iterator["WeierstrassJets"]:
        """The single-point jets of every lane in C order of the joint shape,
        or of the lanes where ``where`` (of that shape) holds: each entry is
        broadcast to the joint shape and read out once for all of them."""
        shape, elem = self.shape, self.field.from_index
        pick = slice(None) if where is None else np.ravel(where)
        cols = [[np.broadcast_to(a.idx, shape).ravel()[pick].tolist()
                 for a in (jet.value, *jet.gradient)]
                for jet in (self.a1, self.a2, self.a3, self.a4, self.a6)]
        for k in range(len(cols[0][0])):
            yield WeierstrassJets(self.field, *(
                Jet(value=elem(c[0][k]), gradient=tuple(elem(d[k]) for d in c[1:]))
                for c in cols))


def _datum_jets(w: WeierstrassData, block: PointBlock) -> WeierstrassJets:
    """The datum's jets at the points of a block (whose degrees are
    ``section_degrees``), a batch over the points: one
    :func:`~elldens.base.jet_at` product with the datum's slot vector."""
    P = block.point
    if w.m != P.m:
        raise ValueError("datum and point live on different projective spaces")
    if w.field != P.emb.src:
        raise FieldMismatchError("datum's field is not the point's base field")
    return jets_from_coords(block.field, jet_at(w.slots(), block))


def jets_at(w: WeierstrassData, P: ClosedPoint) -> WeierstrassJets:
    """The jets of all five coefficient forms at one closed point: the
    batched kernel at a single point."""
    return next(_datum_jets(w, PointBlock(section_degrees(w.field.p, w.k), (P,))).lanes())


def jets_from_indices(field: FieldCtx, idx: np.ndarray,
                      gradients: np.ndarray | None = None) -> WeierstrassJets:
    """Batched jets from element indices of shape (..., g, m+1): the g forms
    that vary in the field's characteristic, in index order, then value and
    gradient entries.  With ``gradients`` given, ``idx`` holds the values
    alone, shape (..., g), and ``gradients`` the gradient entries, shape
    (..., g, m); the two broadcast against each other, so (V, 1, g) values
    and (1, W, g, m) gradients give the V*W tuples without writing them
    out.  The other forms get zero jets."""
    if gradients is None:
        idx, gradients = idx[..., 0], idx[..., 1:]
    m = gradients.shape[-1]
    zero = FieldArray(field, 0)
    jets = {i: Jet(value=zero, gradient=(zero,) * m) for i in _INDICES}
    for s_idx, i in enumerate(varying_indices(field.p)):
        jets[i] = Jet(value=FieldArray(field, idx[..., s_idx]), gradient=tuple(
            FieldArray(field, gradients[..., s_idx, j]) for j in range(m)))
    return WeierstrassJets(field, jets[1], jets[2], jets[3], jets[4], jets[6])


def jets_from_coords(field: FieldCtx, coords: np.ndarray) -> WeierstrassJets:
    """Batched jets from the F_p coordinates that :func:`~elldens.base.jet_at`
    gives, shape (..., g, entries, n): the element indices of
    :func:`jets_from_indices`, one entry (values only) or m+1."""
    return jets_from_indices(field, coords @ field.place)


def fiber_equation(J: WeierstrassJets, x, y):
    """F(x, y) from coefficient values at the point."""
    return (y * y + J.a1.value * x * y + J.a3.value * y
            - x * x * x - J.a2.value * x * x - J.a4.value * x - J.a6.value)


def vanishing_conditions(J: WeierstrassJets, x, y):
    """F, dF/dx, dF/dy and the m base-direction partials at (x, y), lazily;
    (x, y) is a singular point of the total space iff all of them vanish.
    Ring operations only, so they run on single jets and on batches."""
    yield fiber_equation(J, x, y)
    # dF/dx = a1*y - 3x^2 - 2*a2*x - a4
    yield J.a1.value * y - 3 * (x * x) - 2 * (J.a2.value * x) - J.a4.value
    # dF/dy = 2y + a1*x + a3
    yield 2 * y + J.a1.value * x + J.a3.value
    xy = x * y
    x2 = x * x
    for g1, g2, g3, g4, g6 in zip(J.a1.gradient, J.a2.gradient, J.a3.gradient,
                                  J.a4.gradient, J.a6.gradient):
        yield g1 * xy + g3 * y - g2 * x2 - g4 * x - g6


def jacobian_vanishes(J: WeierstrassJets, x: FieldElem, y: FieldElem) -> bool:
    """Whether (x, y) is a singular point of the total space over the point
    with single jets J: F, dF/dx, dF/dy and the m base partials all vanish."""
    return not any(vanishing_conditions(J, x, y))


def infinity_partial(J: WeierstrassJets) -> FieldElem:
    """d/dZ of the homogenized fiber cubic at the section point (0:1:0):
    Y^2 + a1 XY + 2 a3 YZ - a2 X^2 - 2 a4 XZ - 3 a6 Z^2 evaluated there."""
    F = J.field
    X, Y, Z = F.zero, F.one, F.zero
    return (Y * Y + J.a1.value * X * Y + 2 * (J.a3.value * Y * Z)
            - J.a2.value * X * X - 2 * (J.a4.value * X * Z)
            - 3 * (J.a6.value * Z * Z))


@dataclass(frozen=True)
class SingularityWitness:
    """A verified singular fiber point (x, y) over a closed point.

    Construction re-checks that the defining equation and all m+2 partials
    vanish at (x, y) for the supplied jets.
    """

    point: ClosedPoint
    x: FieldElem
    y: FieldElem
    jets: WeierstrassJets = dc_field(repr=False, compare=False)

    def __post_init__(self):
        if not jacobian_vanishes(self.jets, self.x, self.y):
            raise ValueError("witness fails re-verification against the jets")


class SingularBatch(NamedTuple):
    """The closed-form detector on a batch: lane i has a singular fiber point
    iff mask[i], and it is (x[i], y[i]); mask, x and y share one shape, the
    joint broadcast shape of the jets' entries."""

    mask: np.ndarray
    x: FieldArray
    y: FieldArray


def _where(mask: np.ndarray, a, b) -> FieldArray:
    """Lane-wise a where mask holds, else b (FieldArrays or FieldElems)."""
    return FieldArray(a.ctx, np.where(mask, a.idx, b.idx))


def singular_jets_closed_form(J: WeierstrassJets) -> SingularBatch:
    """Solve for the unique singular fiber candidate from batched jets
    (FieldArray entries), branching by characteristic, and keep it only
    where the full list of vanishing conditions holds.

    The branches are masks, not tests.  Where the characteristic's branch
    has no candidate (p = 2 with a1 = 0 and a3 != 0, p = 3 with a2 = 0 and
    a4 != 0) the one it computes fails dF/dy or dF/dx.  Entries that only
    broadcast give mask, x and y in the joint shape (views past the values').
    """
    F = J.field
    a1, a2, a3, a4, a6 = J.values()
    shape = np.broadcast_shapes(*(v.shape for v in J.values()))
    zero = FieldArray(F, np.zeros(shape, dtype=np.int64))
    if F.p == 2:
        # squaring is the Frobenius, hence bijective: c ** (Q/2) inverts it
        free = a1.is_zero
        a1 = _where(free, F.one, a1)
        x = _where(free, a4 ** (F.size // 2), a3 / a1)
        y = _where(free, a6 ** (F.size // 2), (3 * (x * x) + a4) / a1)
    elif F.p == 3:
        free = a2.is_zero
        x = _where(free, (-a6) ** (F.size // 3), a4 / _where(free, F.one, a2))
        y = zero
    else:
        free = a4.is_zero
        c = -(F.from_int(3) / F.from_int(2))
        x = _where(free, zero, c * (a6 / _where(free, F.one, a4)))
        y = zero
    mask = np.ones(shape, dtype=bool)
    for cond in vanishing_conditions(J, x, y):
        mask = mask & cond.is_zero
        if not mask.any():
            break  # every lane has failed; the rest cannot change that
    joint = J.shape
    if joint != shape:
        mask = np.broadcast_to(mask, joint)
        x, y = (FieldArray(F, np.broadcast_to(a.idx, joint)) for a in (x, y))
    return SingularBatch(mask, x, y)


def singular_jets_oracle(J: WeierstrassJets) -> tuple[FieldElem, FieldElem] | None:
    """Exhaustively scan the whole affine fiber (x, y) in the residue field.

    The chart at infinity is not scanned: the Z-partial at (0:1:0) is checked
    to be nonzero instead.
    """
    if not infinity_partial(J):
        raise AssertionError("fiber point at infinity unexpectedly singular")
    F = J.field
    a1v, a2v, a3v, a4v, a6v = J.values()
    elems = [F.from_index(i) for i in range(F.size)]
    for x in elems:
        x2 = x * x
        rhs = x2 * x + a2v * x2 + a4v * x + a6v
        c1 = a1v * x + a3v
        for y in elems:
            # F(x, y) = y*(y + c1) - rhs
            if y * (y + c1) - rhs:
                continue
            if jacobian_vanishes(J, x, y):
                return (x, y)
    return None


def singular_over_closed_form(w: WeierstrassData, P: ClosedPoint) -> SingularityWitness | None:
    """The closed-form detector's witness over one point: the scan of a
    one-point block."""
    block = PointBlock(section_degrees(w.field.p, w.k), (P,))
    return next(_witnesses(w, block), None)


def singular_over_oracle(w: WeierstrassData, P: ClosedPoint) -> SingularityWitness | None:
    J = jets_at(w, P)
    hit = singular_jets_oracle(J)
    if hit is None:
        return None
    return SingularityWitness(point=P, x=hit[0], y=hit[1], jets=J)


def singular_witnesses(w: WeierstrassData, r: int,
                       cap: int | None = None) -> Iterator[SingularityWitness]:
    """The witnesses over the closed points of degree <= r that carry a
    singular fiber point, in listing order.  Per point block of
    :func:`~elldens.base.scan_blocks`, one :func:`~elldens.base.jet_at`
    product gives the jets at its points and one batched detector call
    tests them; each witness is re-verified against its own jets.  ``cap``
    bounds the point enumeration as in
    :func:`~elldens.base.closed_points_up_to`."""
    for block in scan_blocks(w.m, w.field.size, r, section_degrees(w.field.p, w.k), cap):
        yield from _witnesses(w, block)


def _witnesses(w: WeierstrassData, block: PointBlock) -> Iterator[SingularityWitness]:
    """The verified witnesses over the points of one block, in block order:
    one jet product and one detector call."""
    J = _datum_jets(w, block)
    hit = singular_jets_closed_form(J)
    for i, jets in zip(np.flatnonzero(hit.mask), J.lanes(hit.mask)):
        yield SingularityWitness(point=block.points[i], x=hit.x[i], y=hit.y[i], jets=jets)


def smooth_up_to(w: WeierstrassData, r: int) -> bool:
    """True iff the total space is smooth over every closed point of degree
    <= r (by the closed-form detector)."""
    return next(singular_witnesses(w, r), None) is None


def in_Mk(w: WeierstrassData) -> bool:
    """Whether some fiber is smooth, i.e. the discriminant form is nonzero."""
    return not w.delta.is_zero


def minimality_witness(w: WeierstrassData, j_max: int,
                       cap: int | None = None) -> Section | None:
    """A form u of degree 1..j_max with u^i | a_i for all nonzero a_i, if any.

    The coordinate lines certify first: any such u has degree <= delta,
    the bound of :func:`minimality_degree_bound`, so delta = 0 proves the
    datum minimal at every j_max.  Otherwise the normalized candidates of
    degrees 1..min(j_max, delta) are enumerated (all of 1..j_max when no
    line restricts a nonzero a_i to a nonzero form), in an order that does
    not depend on delta: leading coefficient 1 in descending grlex order,
    (q^dim_j - 1)/(q - 1) of them in degree j.  When the candidates to be
    enumerated number more than ``cap`` (default ``MINIMALITY_CAP``),
    FeasibilityError is raised before any is tried; a certified datum
    never raises it.  With j_max >= k the search is complete: any common u
    has degree <= k once some a_i is nonzero.
    """
    if j_max < 1:
        raise ValueError(f"need j_max >= 1, got {j_max}")
    F = w.field
    cap = MINIMALITY_CAP if cap is None else cap
    delta = minimality_degree_bound(w)
    top = j_max if delta is None else min(j_max, delta)
    count = 0
    for j in range(1, top + 1):
        count += (F.size ** dim_space(w.m, j) - 1) // (F.size - 1)
        if count > cap:
            raise FeasibilityError(
                f"minimality search up to degree {j} on P^{w.m} over F_{F.size} "
                f"needs {count} candidate forms > cap {cap}")
    secs = [(i, s) for i, s in w.sections().items() if not s.is_zero]
    for j in range(1, top + 1):
        monos = monomials(w.m, j)
        dim = len(monos)
        for lead in range(dim):
            # leading coefficient 1, earlier monomials zero, later ones free
            free = dim - lead - 1
            for idx in range(F.size ** free):
                coeffs = {monos[lead]: F.one}
                rest = idx
                for t in range(free):
                    rest, ci = divmod(rest, F.size)
                    if ci:
                        coeffs[monos[lead + 1 + t]] = F.from_index(ci)
                u = Section(w.m, j, F, coeffs)
                # u | a_i is necessary for u^i | a_i and needs no power of u
                if not all(exact_divide(s, u) is not None for _, s in secs):
                    continue
                if all(exact_divide(s, u ** i) is not None for i, s in secs):
                    return u
    return None


def minimality_degree_bound(w: WeierstrassData) -> int | None:
    """The least delta_L over the coordinate lines L of P^m (all coordinates
    but x_i and x_j zero, i < j; P^1 itself when m = 1), or None when every
    line restricts every a_i to zero.

    Restricted to L, each nonzero a_i is a binary form in (x_i, x_j);
    delta_L is the degree of the gcd of the nonzero ones: their least
    x_j-valuation plus the degree of the gcd of their dehomogenizations at
    x_j = 1.  If u^i | a_i with deg u >= 1 and some a_i|_L is nonzero, then
    u|_L is a nonzero form of degree deg u dividing every nonzero a_i|_L,
    so deg u <= delta_L.
    """
    F, m = w.field, w.m
    secs = [s for s in w.sections().values() if not s.is_zero]
    best = None
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            val, g = None, []  # least x_j-valuation; gcd so far (0 before any)
            for s in secs:
                line = []  # coefficient of x_i^e x_j^(d-e), e ascending
                for e in range(s.d + 1):
                    expo = [0] * (m + 1)
                    expo[i], expo[j] = e, s.d - e
                    line.append(s.coeffs.get(tuple(expo), F.zero))
                line = _ftrim(line)
                if not line:
                    continue
                v = s.d - (len(line) - 1)
                val = v if val is None else min(val, v)
                g = _fgcd(g, line)
                if val == 0 and len(g) == 1:
                    return 0
            if val is not None:
                delta = val + len(g) - 1
                best = delta if best is None else min(best, delta)
    return best


# univariate polynomials over a field for the line gcds: FieldElem lists,
# least-significant first, trimmed (no trailing zeros), as gf's F_p tuples


def _ftrim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _fmod(a: list, b: list) -> list:
    # b monic
    r = list(a)
    nb = len(b) - 1
    while len(r) > nb:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - nb
            for t, bt in enumerate(b):
                r[shift + t] = r[shift + t] - lead * bt
        r.pop()
    return _ftrim(r)


def _fgcd(a: list, b: list) -> list:
    while b:
        # make b monic before reducing
        inv = b[-1].inverse()
        bm = [c * inv for c in b]
        a, b = bm, _fmod(a, bm)
    return a


def is_minimal(w: WeierstrassData, j_max: int) -> bool:
    """True iff no degree-<=j_max form u has u^i dividing every nonzero a_i."""
    return minimality_witness(w, j_max) is None


def random_weierstrass(m: int, k: int, field: FieldCtx, seed: int) -> WeierstrassData:
    """Uniform draw from the coefficient space: one PCG64 stream seeded with
    ``seed`` supplies all F_p slots of the varying forms, in index order."""
    slots = weierstrass_slots(m, k, field, seed)
    return weierstrass_from_slots(m, k, field, slots)


def total_slots(m: int, k: int, field: FieldCtx) -> int:
    return sum(dim_space(m, d) for d in section_degrees(field.p, k)) * field.n


def weierstrass_slots(m: int, k: int, field: FieldCtx, seed: int) -> np.ndarray:
    """The F_p slots of one uniform draw: NumPy's ``integers(0, p)`` from a
    PCG64 stream seeded with ``seed``, in the smallest dtype holding p - 1.
    :func:`weierstrass_slot_rows` gives the same rows for many seeds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, field.p, size=total_slots(m, k, field),
                        dtype=np.min_scalar_type(field.p - 1))


# NumPy's SeedSequence (a pool of four uint32 words) and PCG64 seeding,
# computed for many seeds at once.  The hash constants run through a fixed
# sequence whatever the data, so each step's pair (xor, multiplier) is
# tabulated: 4 pool fills and 12 cross mixes, then 8 output words.
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    out = []
    for _ in range(n):
        nxt = init * mult & 0xFFFFFFFF
        out.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return tuple(out)


_SS_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_SS_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, consts) -> np.ndarray:
    v = (v ^ consts[0]) * consts[1]
    return v ^ (v >> 16)


def _seed_words(seeds) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    seed s in [0, 2^64), as the columns of a (4, len(seeds)) uint64 array."""
    s = np.asarray(seeds, dtype=np.uint64)
    # the entropy words, little-endian, zero-padded to the pool size
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0] = s & 0xFFFFFFFF
    pool[1] = s >> 32
    consts = iter(_SS_POOL_CONSTS)
    for i in range(4):
        pool[i] = _hashmix(pool[i], next(consts))
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * _hashmix(pool[src], next(consts))
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.stack([_hashmix(pool[i % 4], c) for i, c in enumerate(_SS_STATE_CONSTS)])
    # uint32 words pair into uint64 words little-endian
    return state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)


def _pcg64_states(seed_words: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) ``np.random.PCG64(s)`` starts from, for every column
    (s0, s1, i0, i1) of :func:`_seed_words`: inc = 2 (i0 i1) + 1 and state
    ((s0 s1) + inc) M + inc mod 2^128."""
    states = []
    for s0, s1, i0, i1 in zip(*seed_words.tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        states.append((((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def _slot_word_budget(cols: int, p: int, width: int) -> int:
    """Words of `width` bits drawn per row at first: enough for `cols`
    accepted values but for a rare short row, which draws again."""
    reject = ((1 << width) % p) / (1 << width)
    if not reject:
        return cols
    extra = cols * reject / (1 - reject)
    return cols + math.ceil(extra + 6 * math.sqrt(extra) + 8)


def _bounded_rows(bg: np.random.PCG64, seed_words: np.ndarray, p: int, dtype: np.dtype,
                  nwords: int, out: np.ndarray) -> None:
    """Fill row j of `out` with ``integers(0, p, dtype=dtype)`` drawn from
    the PCG64 stream of column j of `seed_words` (:func:`_seed_words`):
    NumPy's Lemire rule on the stream's little-endian words u of w bits,
    value (u p) >> w unless the low w bits of u p fall below 2^w mod p.
    `nwords` words are drawn per row; a row short of values draws its
    stream again, twice as long.  A block's starting states are formed
    with the block, so no Python integers are held for the whole chunk."""
    cols = out.shape[1]
    size = dtype.itemsize
    width = 8 * size
    threshold = (1 << width) % p
    nraw = -(-nwords // (8 // size))
    wide = np.dtype(f"u{2 * size}")
    # temporaries per raw byte of a row: the words' products, low words,
    # acceptance masks, int32 ranks and kept values (under 8 + 12 / size),
    # or the shifted copy alone when p divides 2^w
    step = max(1, _ROW_BUDGET // (nraw * 8 * (8 + 12 // size if threshold else 3)))
    seed = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": seed, "has_uint32": 0, "uinteger": 0}
    short = []
    for lo in range(0, seed_words.shape[1], step):
        group = _pcg64_states(seed_words[:, lo:lo + step])
        raw = np.empty((len(group), nraw), dtype=np.uint64)
        for row, (state, inc) in zip(raw, group):
            seed["state"], seed["inc"] = state, inc
            bg.state = full_state
            row[:] = bg.random_raw(nraw)
        drawn = raw.astype("<u8", copy=False).view(f"<u{size}")
        if not threshold:
            # p = 2^j divides 2^w: every word is accepted, (u p) >> w = u >> (w - j)
            if drawn.shape[1] >= cols:
                out[lo:lo + len(group)] = drawn[:, :cols] >> (width + 1 - p.bit_length())
            else:
                short.extend(range(lo, lo + len(group)))
            continue
        prod = drawn.astype(wide)
        prod *= wide.type(p)
        accept = prod.astype(dtype) >= threshold
        rank = np.cumsum(accept, axis=1, dtype=np.int32)
        ok = rank[:, -1] >= cols
        accept &= rank <= cols
        prod >>= width
        if ok.all():
            out[lo:lo + len(group)] = prod[accept].reshape(len(group), cols)
            continue
        if ok.any():
            out[lo + np.flatnonzero(ok)] = prod[ok][accept[ok]].reshape(-1, cols)
        short.extend((lo + np.flatnonzero(~ok)).tolist())
    if short:
        redo = np.empty((len(short), cols), dtype=out.dtype)
        _bounded_rows(bg, seed_words[:, short], p, dtype, 2 * nraw * (8 // size), redo)
        out[short] = redo


def weierstrass_slot_rows(p: int, cols: int, seeds, out: np.ndarray | None = None) -> np.ndarray:
    """Row j is ``weierstrass_slots`` for seed ``seeds[j]`` (`cols` slots
    over F_p), bit for bit, written into `out` when given.

    NumPy's per-seed recipe runs for all seeds together: the SeedSequence
    hash on arrays of seed words, one reused PCG64 set to each seed's
    starting state for one ``random_raw`` call per row, and the Lemire rule
    on whole blocks of rows, whose temporaries stay within ``_ROW_BUDGET``
    bytes.  NumPy draws 64-bit values when p - 1 >= 2^32; those are refused."""
    dtype = np.min_scalar_type(p - 1)
    if dtype.itemsize > 4:
        raise FeasibilityError(f"slot draws need p <= 2^32, got p={p}")
    if out is None:
        out = np.empty((len(seeds), cols), dtype=dtype)
    _bounded_rows(np.random.PCG64(0), _seed_words(seeds), p, dtype,
                  _slot_word_budget(cols, p, 8 * dtype.itemsize), out)
    return out


def weierstrass_from_slots(m: int, k: int, field: FieldCtx, slots) -> WeierstrassData:
    """Decode a flat F_p slot vector (the jet blocks' columns, form after
    form: varying forms in index order, monomials in descending grlex, base-field
    coordinates innermost) into a WeierstrassData.  A vector of any other
    length than :func:`total_slots` is refused."""
    n = field.n
    if len(slots) != total_slots(m, k, field):
        raise ValueError(f"a datum with k={k} on P^{m} over F_{field.p}^{n} takes "
                         f"{total_slots(m, k, field)} slots, got {len(slots)}")
    secs: dict[int, Section] = {}
    off = 0
    for i in varying_indices(field.p):
        d = i * k
        width = dim_space(m, d) * n
        secs[i] = section_from_slots(m, d, field, slots[off:off + width])
        off += width
    full = {
        i: secs.get(i, Section.zero(m, i * k, field)) for i in _INDICES
    }
    return WeierstrassData(m, k, field,
                           full[1], full[2], full[3], full[4], full[6])


# -- serialization -------------------------------------------------------------


def weier_to_obj(w: WeierstrassData) -> dict:
    return {
        "format_version": WEIER_FORMAT_VERSION,
        "field": {"p": w.field.p, "n": w.field.n, "modulus": list(w.field.modulus)},
        "m": w.m,
        "k": w.k,
        "sections": {f"a{i}": s.to_obj() for i, s in w.sections().items()},
    }


def weier_from_obj(obj: dict) -> WeierstrassData:
    try:
        ver = obj["format_version"]
        if ver != WEIER_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {ver}")
        fobj = obj["field"]
        field = FieldCtx(int(fobj["p"]), int(fobj["n"]), tuple(fobj["modulus"]))
        # closed points live over make_field's field; another modulus gives
        # an isomorphic field whose elements they cannot take
        expected = make_field(field.p, field.n).modulus
        if field.modulus != expected:
            raise ValueError(
                f"stored field modulus {list(field.modulus)} of F_{field.p}^{field.n} "
                f"is not the expected modulus {list(expected)}")
        m, k = int(obj["m"]), int(obj["k"])
        sobj = obj["sections"]
        if not isinstance(sobj, dict):
            raise TypeError(f"sections must be an object, got {type(sobj).__name__}")
        secs = {i: Section.from_obj(m, i * k, field, sobj.get(f"a{i}", [])) for i in _INDICES}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fibration object: {exc}") from exc
    return WeierstrassData(m, k, field,
                           secs[1], secs[2], secs[3], secs[4], secs[6])


def dump_weier(w: WeierstrassData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weier_to_obj(w), fh, indent=2)
        fh.write("\n")


def load_weier(path: str) -> WeierstrassData:
    with open(path, encoding="utf-8") as fh:
        return weier_from_obj(json.load(fh))
