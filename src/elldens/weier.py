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
first-order jets of the coefficient forms at P.  The fiber point at infinity
(0:1:0) is never singular (the Z-partial there is Y^2 = 1) and is asserted,
never searched.

Two independent detectors take the same batches (jets whose entries are
:class:`~elldens.gf.FieldArray` s over one residue field that need only
broadcast) and give the same :class:`SingularBatch`.  The oracle scans all
of F_Q^2 for chunks of lanes at once.  The closed form solves for the
candidate (x, y) per characteristic, the branches taken as masks, from the
coefficient values alone (the value stage), then tests the base directions
on the lanes that pass: each is a linear form in the varying forms'
gradient entries, its coefficients dF/da_f formed once a call.  Over a
residue field with at most ``_VALUE_TABLE_LIMIT`` value tuples (Q^g) the
value stage and the discriminant test on values are one gather from its
:class:`ValueTable`, built on first use from the same formulas, read in
this module alone.

This module answers for a batch of jets or for a datum; the passes over
point blocks live in ``density``.  A single point is a lane of its block,
and :meth:`WeierstrassJets.lanes` reads a scan witness's jets back out for
its scalar re-verification.  The discriminant, the fiber equation and the
vanishing conditions are written once with ring operations, so they run on
forms, on FieldElems and on FieldArrays.
"""
from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import zeta as _zeta
from .base import _POINT_CAP, _ROW_BUDGET, ClosedPoint
from .errors import FeasibilityError
from .gf import FieldArray, FieldCtx, FieldElem, make_field, poly_gcd, poly_trim
from .sections import (KeyLayout, Section, TermTable, dim_space, exact_divide, monomials,
                       section_from_slots, section_slots)

WEIER_FORMAT_VERSION = 1
# candidate forms a minimality search may try, counted over the degrees left
# after the coordinate-line bound (none for a certified datum); one costs
# ~45 us (P^2 over F_2, k = 4), so the default search stays within a minute
MINIMALITY_CAP = 1 << 20
# a line bound's Euclid on dense degree-d forms takes up to (d + 1)^2 field
# operations, 0.4-0.8 us each: this many a candidate (~45 us) of the cap
_LINE_OPS_PER_CANDIDATE = 64
# one lane budget for the batched detector: the value tuples (Q^g) up to
# which a residue field gets a ValueTable, built in one call (F_125 at g = 2,
# 15,625 tuples, and F_8 at g = 4 do; F_16 at g = 4 and F_27 at g = 3 do not,
# so a one-shot scan never builds more than it reads), and the jet tuples a
# census detector call takes, past which the call's fixed cost is amortized
_VALUE_TABLE_LIMIT = 1 << 14
_CENSUS_BLOCK = _VALUE_TABLE_LIMIT

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
    b8 = a1^2 a6 + 4 a2 a6 - a1 a3 a4 + a2 a3^2 - a4^2 = b2 a6 - a1 a3 a4 + a2 a3^2 - a4^2,
    delta = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 = b2 (9 b4 b6 - b2 b8) - 8 b4^3 - 27 b6^2.

    Ring operations only: term tables of the coefficient forms give the
    discriminant's table, FieldElem values one fiber's discriminant,
    FieldArray values a batch.  a1^2, a3^2 and a1 a3 are formed once each,
    so a call makes 13 ring products.  The integer multiples come first, so
    one that vanishes mod p leaves the products after it on zero.
    """
    a11, a13, a33 = a1 * a1, a1 * a3, a3 * a3
    b2 = a11 + 4 * a2
    b4 = 2 * a4 + a13
    b6 = a33 + 4 * a6
    b8 = b2 * a6 - a13 * a4 + a2 * a33 - a4 * a4
    return b2 * (9 * b4 * b6 - b2 * b8) - 8 * b4 * b4 * b4 - 27 * b6 * b6


@dataclass(frozen=True)
class Jet:
    """Value and local-coordinate gradient of a form at a closed point."""

    value: FieldElem
    gradient: tuple[FieldElem, ...]


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
        return np.broadcast_shapes(*{a.shape for jet in (self.a1, self.a2, self.a3,
                                                         self.a4, self.a6)
                                     for a in (jet.value, *jet.gradient)})

    def lanes(self, where: np.ndarray | None = None) -> Iterator["WeierstrassJets"]:
        """The single-point jets of every lane in C order of the joint shape,
        or of the lanes where ``where`` (of that shape) holds; each entry is
        read once, at those lanes, from its own array (see :func:`_gather`)."""
        grid, elem = self.shape or (1,), self.field.from_index
        at = np.nonzero(np.ones(grid, dtype=bool) if where is None else np.reshape(where, grid))
        cols = [[v.tolist() if (v := _gather(a, grid, at).idx).ndim else [v.item()] * len(at[0])
                 for a in (jet.value, *jet.gradient)]
                for jet in (self.a1, self.a2, self.a3, self.a4, self.a6)]
        for k in range(len(cols[0][0])):
            yield WeierstrassJets(self.field, *(
                Jet(value=elem(c[0][k]), gradient=tuple(elem(d[k]) for d in c[1:]))
                for c in cols))


def jets_from_indices(field: FieldCtx, idx: np.ndarray,
                      gradients: np.ndarray | None = None) -> WeierstrassJets:
    """Batched jets from element indices of shape (..., g, m+1), as
    :func:`~elldens.base.jet_at` gives them: the g forms that vary in the
    field's characteristic, in index order, then value and gradient
    entries.  With ``gradients`` given, ``idx`` holds the values alone,
    shape (..., g), and ``gradients`` the gradient entries, shape (..., g,
    m); the two broadcast against each other, so (V, 1, g) values and (1,
    W, g, m) gradients give the V*W tuples without writing them out.  The
    other forms get zero jets."""
    if gradients is None:
        idx, gradients = idx[..., 0], idx[..., 1:]
    m = gradients.shape[-1]
    zero = FieldArray(field, 0)
    jets = dict.fromkeys(_INDICES, Jet(value=zero, gradient=(zero,) * m))
    for s_idx, i in enumerate(varying_indices(field.p)):
        jets[i] = Jet(value=FieldArray(field, idx[..., s_idx]), gradient=tuple(
            FieldArray(field, gradients[..., s_idx, j]) for j in range(m)))
    return WeierstrassJets(field, jets[1], jets[2], jets[3], jets[4], jets[6])


def fiber_equation(J: WeierstrassJets, x, y):
    """F(x, y) from coefficient values at the point."""
    return (y * y + J.a1.value * x * y + J.a3.value * y
            - x * x * x - J.a2.value * x * x - J.a4.value * x - J.a6.value)


def value_conditions(J: WeierstrassJets, x, y):
    """F, dF/dx and dF/dy at (x, y), lazily: the conditions that read the
    coefficient values alone."""
    yield fiber_equation(J, x, y)
    # dF/dx = a1*y - 3x^2 - 2*a2*x - a4
    yield J.a1.value * y - 3 * (x * x) - 2 * (J.a2.value * x) - J.a4.value
    # dF/dy = 2y + a1*x + a3
    yield 2 * y + J.a1.value * x + J.a3.value


def base_coefficient(f: int, x, y):
    """dF/da_f at (x, y) for f = 1, 2, 3, 4: x y, -x^2, y, -x (dF/da6 = -1)."""
    return x * y if f == 1 else -(x * x) if f == 2 else y if f == 3 else -x


def base_condition(g1, g2, g3, g4, g6, x, y):
    """The partial at (x, y) along one base direction, by the chain rule the
    linear form sum_f dF/da_f g_f in the five forms' gradient entries there
    (see :func:`base_coefficient`)."""
    c1, c2, c3, c4 = (base_coefficient(f, x, y) for f in (1, 2, 3, 4))
    return g1 * c1 + g2 * c2 + g3 * c3 + g4 * c4 - g6


def vanishing_conditions(J: WeierstrassJets, x, y):
    """F, dF/dx, dF/dy and the m base-direction partials at (x, y), lazily;
    (x, y) is a singular point of the total space iff all of them vanish.
    Ring operations only, so they run on single jets and on batches."""
    yield from value_conditions(J, x, y)
    for grads in zip(*(jet.gradient for jet in (J.a1, J.a2, J.a3, J.a4, J.a6))):
        yield base_condition(*grads, x, y)


def jacobian_vanishes(J: WeierstrassJets, x: FieldElem, y: FieldElem) -> bool:
    """Whether (x, y) is a singular point of the total space over the point
    with single jets J: F, dF/dx, dF/dy and the m base partials all vanish."""
    return not any(vanishing_conditions(J, x, y))


def infinity_partial(J: WeierstrassJets):
    """d/dZ of the homogenized fiber cubic at the section point (0:1:0):
    Y^2 + a1 XY + 2 a3 YZ - a2 X^2 - 2 a4 XZ - 3 a6 Z^2 evaluated there, per lane."""
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
    """Either detector on a batch: lane i has a singular fiber point iff
    mask[i], and it is (x[i], y[i]); mask, x and y share one shape, the
    joint broadcast shape of the jets' entries."""

    mask: np.ndarray
    x: FieldArray
    y: FieldArray


def _where(mask: np.ndarray, a, b) -> FieldArray:
    """Lane-wise a where mask holds, else b (FieldArrays or FieldElems)."""
    return FieldArray(a.ctx, np.where(mask, a.idx, b.idx))


def _candidate(J: WeierstrassJets) -> tuple[FieldArray, FieldArray]:
    """The unique singular fiber candidate (x, y) per lane of the values'
    shape, branching by characteristic.

    The branches are masks, not tests.  Where the characteristic's branch
    has no candidate (p = 2 with a1 = 0 and a3 != 0, p = 3 with a2 = 0 and
    a4 != 0) the one it computes fails dF/dy or dF/dx."""
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
    return x, y


def _value_stage(J: WeierstrassJets) -> tuple[np.ndarray, FieldArray, FieldArray]:
    """By the formulas: per lane of the values' shape, whether F, dF/dx and
    dF/dy vanish at the candidate, and the candidate (x, y)."""
    x, y = _candidate(J)
    passes = np.ones(np.broadcast_shapes(*(v.shape for v in J.values())), dtype=bool)
    for cond in value_conditions(J, x, y):
        passes &= cond.is_zero
        if not passes.any():
            break  # every lane has failed; the rest cannot change that
    return passes, x, y


class ValueTable(NamedTuple):
    """The value stage and the discriminant test on every value tuple of a
    residue field, indexed by the value key (see :func:`value_keys`):
    whether F, dF/dx and dF/dy vanish at the candidate, the candidate
    (x, y) as element indices in ``np.min_scalar_type(Q - 1)``, and whether
    the discriminant vanishes."""

    passes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    delta_zero: np.ndarray


_value_tables: dict[FieldCtx, ValueTable] = {}


def value_table(field: FieldCtx) -> ValueTable | None:
    """The field's value table, built on first use and kept, or None where
    its value tuples number more than ``_VALUE_TABLE_LIMIT``."""
    g = len(varying_indices(field.p))
    if field.size ** g > _VALUE_TABLE_LIMIT:
        return None
    table = _value_tables.get(field)
    if table is None:
        table = _value_tables[field] = _build_value_table(field, g)
    return table


def _build_value_table(field: FieldCtx, g: int) -> ValueTable:
    """:func:`_value_stage` and :func:`discriminant_value` on all Q^g value
    tuples in key order, in one call (Q^g <= ``_VALUE_TABLE_LIMIT``)."""
    Q = field.size
    keys = np.arange(Q ** g)
    # the key's base-Q digit f is the value of the f-th varying form
    vals = np.stack([keys // Q ** f % Q for f in range(g)], axis=-1)
    J = jets_from_indices(field, vals, np.zeros(vals.shape + (0,), dtype=np.int64))
    passes, x, y = _value_stage(J)
    small = np.min_scalar_type(Q - 1)
    table = ValueTable(passes, x.idx.astype(small), y.idx.astype(small),
                       discriminant_value(*J.values()).is_zero)
    for a in table:
        a.flags.writeable = False
    return table


def value_keys(J: WeierstrassJets) -> tuple[ValueTable, np.ndarray] | None:
    """The field's value table and the batch's value keys sum_f v_f Q^f, v_f
    the value of the f-th varying form, in the values' shape; None where
    the field has no table or a form fixed at zero in the characteristic
    has a nonzero value."""
    table = value_table(J.field)
    if table is None:
        return None
    vals = dict(zip(_INDICES, J.values()))
    vary = varying_indices(J.field.p)
    if any(np.count_nonzero(vals[i].idx) for i in _INDICES if i not in vary):
        return None
    key = vals[vary[-1]].idx
    for i in reversed(vary[:-1]):
        key = key * J.field.size + vals[i].idx
    return table, key


def _gather(a: FieldArray, grid: tuple[int, ...], at: tuple[np.ndarray, ...]) -> FieldArray:
    """The entries of ``a``, broadcast to ``grid``, at the lanes ``at``: read
    from ``a``'s own array, at index 0 on every axis where it broadcasts (as
    a census's (V, 1) values and (1, W) gradients), so no view of the grid
    is indexed; a 0-d ``a`` (one element for every lane, as a fixed form's
    zero gradient) as it is."""
    if a.shape == grid:
        return FieldArray(a.ctx, a.idx[at])
    if not a.idx.ndim:
        return a
    own = at[len(grid) - a.idx.ndim:]  # an entry's axes are the grid's last ones
    return FieldArray(a.ctx, a.idx[tuple(ix if n > 1 else 0 for n, ix in zip(a.shape, own))])


def singular_jets_closed_form(J: WeierstrassJets) -> SingularBatch:
    """Solve for the unique singular fiber candidate from batched jets
    (FieldArray entries), branching by characteristic, and keep it only
    where the full list of vanishing conditions holds.

    The value stage comes first, in the values' shape: one gather from the
    field's :class:`ValueTable` where it has one, else the candidate and
    the F, dF/dx, dF/dy tests by their formulas.  The base stage then tests
    one direction at a time on the lanes of the joint shape that have
    passed so far, each entry gathered at those lanes from its own array
    (see :func:`_gather`): sum_f c_f g_f = g6 over the forms that vary in
    characteristic p (the others are zero), c = (xy, -x^2, y, -x) for (a1,
    a2, a3, a4) as in :func:`base_condition`, formed once per call at the
    lanes that passed the values, so for p >= 5 a direction costs one
    product.  Entries that only broadcast give mask, x and y in the joint
    shape (x and y views past the values').
    """
    F = J.field
    found = value_keys(J)
    if found is None:
        passes, x, y = _value_stage(J)
    else:
        table, key = found
        passes = table.passes[key]
        x, y = FieldArray(F, table.x[key]), FieldArray(F, table.y[key])
    joint = J.shape
    grid = joint or (1,)  # a batch of one lane has the lane shape ()
    lanes = (passes if passes.shape == grid else np.broadcast_to(passes, grid)).ravel().nonzero()[0]
    if lanes.size:
        vary = varying_indices(F.p)
        at = np.unravel_index(lanes, grid)
        xl, yl = _gather(x, grid, at), _gather(y, grid, at)
        coef = [base_coefficient(f, xl, yl) for f in vary[:-1]]
        for grad in zip(*(getattr(J, f"a{f}").gradient for f in vary)):  # per direction, g6 last
            terms = [c * _gather(a, grid, at) for c, a in zip(coef, grad)]
            ok = sum(terms[1:], terms[0]).idx == _gather(grad[-1], grid, at).idx
            # every entry broadcasting along the lanes' axes leaves one answer for all
            lanes = lanes[ok if ok.shape == lanes.shape else np.broadcast_to(ok, lanes.shape)]
            if not lanes.size:
                break
            coef = [c if not c.idx.ndim else FieldArray(F, c.idx[ok]) for c in coef]
            at = np.unravel_index(lanes, grid)
    mask = np.zeros(joint, dtype=bool)
    mask.reshape(-1)[lanes] = True
    x, y = (a if a.shape == joint else FieldArray(F, np.broadcast_to(a.idx, joint))
            for a in (x, y))
    return SingularBatch(mask, x, y)


def delta_vanishes(J: WeierstrassJets) -> np.ndarray:
    """Per lane of the values' shape, whether the discriminant value
    vanishes: a gather from the field's :class:`ValueTable` where it has
    one."""
    found = value_keys(J)
    if found is None:
        return discriminant_value(*J.values()).is_zero
    table, key = found
    return table.delta_zero[key]


def singular_jets_oracle(J: WeierstrassJets) -> SingularBatch:
    """Exhaustively scan the affine fiber of every lane of a batch, taken as
    by :func:`singular_jets_closed_form`: a lane's witness is its first (x,
    y) in index order, x outer, where all :func:`vanishing_conditions`
    vanish; x = y = 0 off the mask.  Each pass tests a run of points against
    a chunk of lanes, its int64 temporaries within ``_ROW_BUDGET`` bytes.
    The Z-partial at (0:1:0) is checked instead of the chart at infinity."""
    if infinity_partial(J).is_zero.any():
        raise AssertionError("fiber point at infinity unexpectedly singular")
    F, joint = J.field, J.shape
    grid, points = joint or (1,), F.size * F.size  # a one-lane batch has the lane shape ()
    cells = max(1, _ROW_BUDGET // 48)  # a condition holds ~6 int64 arrays of them at once
    run, step = min(points, cells), max(1, cells // points)
    first = np.full(math.prod(grid), -1)  # per lane, its first singular point's index
    for lo in range(0, first.size, step):
        todo = first[lo:lo + step]
        at = np.unravel_index(np.arange(lo, lo + todo.size), grid)
        chunk = WeierstrassJets(F, *(Jet(_gather(jet.value, grid, at),
                                         tuple(_gather(a, grid, at) for a in jet.gradient))
                                     for jet in (J.a1, J.a2, J.a3, J.a4, J.a6)))
        for t0 in range(0, points, run):
            t = np.arange(t0, min(t0 + run, points))[:, None]
            hit = np.ones((len(t), todo.size), dtype=bool)
            for cond in vanishing_conditions(chunk, *(FieldArray(F, a) for a in divmod(t, F.size))):
                hit &= cond.is_zero
                if not hit.any():
                    break
            new = (todo < 0) & hit.any(axis=0)
            todo[new] = t0 + hit[:, new].argmax(axis=0)
    x, y = np.divmod(np.where(first >= 0, first, 0).reshape(joint), F.size)
    return SingularBatch((first >= 0).reshape(joint), FieldArray(F, x), FieldArray(F, y))


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
    never raises it; a nonzero a_i of degree d with (d + 1)^2 above
    ``_LINE_OPS_PER_CANDIDATE * cap`` raises it before any line is read.
    With j_max >= k the search is complete: any common u has degree <= k
    once some a_i is nonzero.
    """
    if j_max < 1:
        raise ValueError(f"need j_max >= 1, got {j_max}")
    F = w.field
    cap = MINIMALITY_CAP if cap is None else cap
    for i, s in w.sections().items():
        if not s.is_zero and (s.d + 1) ** 2 > _LINE_OPS_PER_CANDIDATE * cap:
            raise FeasibilityError(
                f"minimality line bound on a{i} of degree {s.d} needs up to ({s.d}+1)^2 "
                f"field operations > {_LINE_OPS_PER_CANDIDATE} * cap {cap}")
    delta = minimality_degree_bound(w)
    top = j_max if delta is None else min(j_max, delta)
    if not top:  # delta = 0: certified, no candidate to try
        return None
    count = 0
    for j in range(1, top + 1):
        # the forms of degree j up to scaling are the points of P^(dim - 1)
        count += _zeta.projective_points(dim_space(w.m, j) - 1, F.size)
        if count > cap:
            raise FeasibilityError(
                f"minimality search up to degree {j} on P^{w.m} over F_{F.size} "
                f"needs {count} candidate forms > cap {cap}")
    secs = [(i, s, s.terms()) for i, s in w.sections().items() if not s.is_zero]
    for j in range(1, top + 1):
        monos = monomials(w.m, j)
        dim = len(monos)
        for lead in range(dim):
            # leading coefficient 1, earlier monomials zero, later ones free
            free = dim - lead - 1
            for digits in itertools.product(F.elements(), repeat=free):
                # the first free monomial's coefficient is the innermost digit
                coeffs = dict(zip(monos[lead + 1:], reversed(digits)))
                u = Section(w.m, j, F, {monos[lead]: F.one, **coeffs})
                # u | a_i is necessary for u^i | a_i and needs no power of u
                if not all(exact_divide(s, u, t) is not None for _, s, t in secs):
                    continue
                if all(exact_divide(s, u ** i, t) is not None for i, s, t in secs):
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
    secs = [(s.d, s.terms()) for s in w.sections().values() if not s.is_zero]
    best = None
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            val, g = None, []  # least x_j-valuation; gcd so far (0 before any)
            for d, terms in secs:
                line = []  # coefficient of x_i^e x_j^(d-e), e ascending
                for e in range(d + 1):
                    expo = [0] * (m + 1)
                    expo[i], expo[j] = e, d - e
                    line.append(terms.get(tuple(expo), F.zero))
                line = poly_trim(line)
                if not line:
                    continue
                v = d - (len(line) - 1)
                val = v if val is None else min(val, v)
                g = poly_gcd(g, line)
                if val == 0 and len(g) == 1:
                    return 0
            if val is not None:
                delta = val + len(g) - 1
                best = delta if best is None else min(best, delta)
    return best


def random_weierstrass(m: int, k: int, field: FieldCtx, seed: int) -> WeierstrassData:
    """Uniform draw from the coefficient space: one PCG64 stream seeded with
    ``seed`` supplies all F_p slots of the varying forms, in index order.
    Before any slot is drawn, a datum whose forms' int64 term arrays ((m +
    1) exponents and n digits a monomial) would pass ``_POINT_CAP`` bytes
    is refused with FeasibilityError."""
    nbytes = 8 * (m + 1 + field.n) * (total_slots(m, k, field) // field.n)
    if nbytes > _POINT_CAP:
        raise FeasibilityError(f"a random datum with k={k} on P^{m} over F_{field.size} "
                               f"needs {nbytes} bytes of term arrays > cap {_POINT_CAP}")
    slots = weierstrass_slots(m, k, field, seed)
    return weierstrass_from_slots(m, k, field, slots)


def total_slots(m: int, k: int, field: FieldCtx) -> int:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
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
    w = WeierstrassData(m, k, field, *(secs[i] if i in secs else Section.zero(m, i * k, field)
                                       for i in _INDICES))
    w._slots = np.asarray(slots, dtype=np.int64) % field.p  # as slots() would build it
    w._slots.flags.writeable = False
    return w


# -- serialization -------------------------------------------------------------


def weier_to_obj(w: WeierstrassData) -> dict:
    return {
        "format_version": WEIER_FORMAT_VERSION,
        "field": {"p": w.field.p, "n": w.field.n, "modulus": list(w.field.modulus)},
        "m": w.m,
        "k": w.k,
        "sections": {f"a{i}": s.to_obj() for i, s in w.sections().items()},
    }


def _stored_int(x, what: str) -> int:
    """x from stored data, refused unless an int, so that a float is not
    truncated nor JSON's true read as 1."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def weier_from_obj(obj: dict) -> WeierstrassData:
    try:
        ver = _stored_int(obj["format_version"], "format_version")
        if ver != WEIER_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {ver}")
        fobj = obj["field"]
        field = FieldCtx(_stored_int(fobj["p"], "p"), _stored_int(fobj["n"], "n"),
                         tuple(_stored_int(c, "a modulus entry") for c in fobj["modulus"]))
        # closed points live over make_field's field; another modulus gives
        # an isomorphic field whose elements they cannot take
        expected = make_field(field.p, field.n).modulus
        if field.modulus != expected:
            raise ValueError(
                f"stored field modulus {list(field.modulus)} of F_{field.p}^{field.n} "
                f"is not the expected modulus {list(expected)}")
        m, k = _stored_int(obj["m"], "m"), _stored_int(obj["k"], "k")
        if k < 1:  # before the forms, which would refuse a1's degree k instead
            raise ValueError(f"need k >= 1, got {k}")
        sobj = obj["sections"]
        if not isinstance(sobj, dict):
            raise TypeError(f"sections must be an object, got {type(sobj).__name__}")
        names = {f"a{i}": i for i in _INDICES}
        if unknown := [key for key in sobj if key not in names]:
            raise ValueError(f"unknown section {unknown[0]!r}, not one of {', '.join(names)}")
        secs = {i: Section.from_obj(m, i * k, field, sobj.get(a, [])) for a, i in names.items()}
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
