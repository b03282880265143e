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

Jets have one format from ``base.jet_at`` to a scan witness: a
:class:`WeierstrassJets`, the varying forms' values and gradients as int64
element indices of one residue field that need only broadcast against each
other.  Two independent detectors take the same batches and give the same
:class:`SingularBatch`.  The oracle scans all of F_Q^2 for chunks of lanes
at once.  The closed form solves for the candidate (x, y) per
characteristic, the branches taken as masks, from the coefficient values
alone (the value stage), then tests the base directions on the lanes that
pass: each is a linear form in the varying forms' gradient entries, its
coefficients dF/da_f formed once a call.  Over a residue field with at
most ``_VALUE_TABLE_LIMIT`` value tuples (Q^g) the value stage and the
discriminant test on values are one gather from its :class:`ValueTable`,
built on first use from the same formulas, read in this module alone.

This module answers for a batch of jets or for a datum; the passes over
point blocks live in ``density``.  A single point is a lane of its block,
and a scan witness keeps its lane's index rows.  The discriminant, the
fiber equation and the vanishing conditions are written once with ring
operations and integer multiples, so they run on forms, on FieldElems and
on FieldArrays, one element type a call.  The batch code meets no
FieldElem: its constants are ints and 0-d FieldArrays, and a detector
answers in element-index arrays, the format of the jets it is given.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import zeta as _zeta
from .base import _POINT_CAP, _ROW_BUDGET, ClosedPoint
from .draws import slot_rows
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


@dataclass(frozen=True, eq=False)
class WeierstrassJets:
    """First-order jets of the coefficient forms at a batch of points or jet
    tuples over one residue field, as element indices: ``values``, shape
    (..., g), and ``gradients``, shape (..., g, m), of the g forms that vary
    in the field's characteristic, in index order.  The two need only
    broadcast against each other on their lane axes, so (V, 1, g) values and
    (1, W, g, m) gradients give the V*W tuples without writing them out; a
    single point's jets are a batch of lane shape ().  A formula reads a
    form's entries as FieldArrays through :meth:`forms`."""

    field: FieldCtx
    values: np.ndarray
    gradients: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The joint broadcast shape of the lanes."""
        return np.broadcast_shapes(self.values.shape[:-1], self.gradients.shape[:-2])

    def forms(self, entries: np.ndarray) -> tuple[FieldArray, ...]:
        """a1, a2, a3, a4, a6 read from `entries`, whose last axis runs over
        the varying forms (``values``, or ``gradients[..., j]`` along base
        direction j); a form fixed in the characteristic reads as a 0-d zero."""
        F = self.field
        return _by_index(F.p, (FieldArray(F, entries[..., s]) for s in range(entries.shape[-1])),
                         FieldArray(F, 0))


def _by_index(p: int, varying, zero) -> tuple:
    """(a1, a2, a3, a4, a6) from the entries of the forms that vary in
    characteristic p, in index order, the fixed forms' entries `zero`."""
    by = dict(zip(varying_indices(p), varying))
    return tuple(by.get(i, zero) for i in _INDICES)


def jets_from_indices(field: FieldCtx, idx: np.ndarray) -> WeierstrassJets:
    """Batched jets from element indices of shape (..., g, m+1), as
    :func:`~elldens.base.jet_at` gives them: the g varying forms, then the
    value and the gradient entries."""
    return WeierstrassJets(field, idx[..., 0], idx[..., 1:])


def value_conditions(a, x, y):
    """F, dF/dx and dF/dy at (x, y), lazily, from the coefficient values a =
    (a1, a2, a3, a4, a6): the conditions that read the values alone."""
    a1, a2, a3, a4, a6 = a
    yield y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6
    # dF/dx = a1*y - 3x^2 - 2*a2*x - a4
    yield a1 * y - 3 * (x * x) - 2 * (a2 * x) - a4
    # dF/dy = 2y + a1*x + a3
    yield 2 * y + a1 * x + a3


def base_coefficient(f: int, x, y):
    """dF/da_f at (x, y) for f = 1, 2, 3, 4: x y, -x^2, y, -x (dF/da6 = -1)."""
    return x * y if f == 1 else -(x * x) if f == 2 else y if f == 3 else -x


def base_condition(g1, g2, g3, g4, g6, x, y):
    """The partial at (x, y) along one base direction, by the chain rule the
    linear form sum_f dF/da_f g_f in the five forms' gradient entries there
    (see :func:`base_coefficient`)."""
    c1, c2, c3, c4 = (base_coefficient(f, x, y) for f in (1, 2, 3, 4))
    return g1 * c1 + g2 * c2 + g3 * c3 + g4 * c4 - g6


def vanishing_conditions(a, directions, x, y):
    """F, dF/dx, dF/dy and the base-direction partials at (x, y), lazily,
    from the coefficient values a = (a1, a2, a3, a4, a6) and, per base
    direction, the five forms' gradient entries; (x, y) is a singular point
    of the total space iff all of them vanish.  Ring operations only, so
    they run on FieldElems and on FieldArrays."""
    yield from value_conditions(a, x, y)
    for grads in directions:
        yield base_condition(*grads, x, y)


def jacobian_vanishes(J: WeierstrassJets, x: FieldElem, y: FieldElem) -> bool:
    """Whether (x, y) is a singular point of the total space over the point
    of the single-point jets J (lane shape ()): F, dF/dx, dF/dy and the m
    base partials all vanish, by :func:`vanishing_conditions` on the
    lane's entries read as FieldElems."""
    F = J.field

    def elems(row):
        return _by_index(F.p, map(F.from_index, row), F.zero)

    return not any(vanishing_conditions(elems(J.values.tolist()),
                                        map(elems, zip(*J.gradients.tolist())), x, y))


def infinity_partial(J: WeierstrassJets):
    """d/dZ of the homogenized fiber cubic at the section point (0:1:0):
    Y^2 + a1 XY + 2 a3 YZ - a2 X^2 - 2 a4 XZ - 3 a6 Z^2 evaluated there, per lane."""
    a1, a2, a3, a4, a6 = J.forms(J.values)
    X, Y, Z = 0, 1, 0
    return (Y * Y + a1 * X * Y + 2 * (a3 * Y * Z)
            - a2 * X * X - 2 * (a4 * X * Z)
            - 3 * (a6 * Z * Z))


@dataclass(frozen=True)
class SingularityWitness:
    """A verified singular fiber point (x, y) over a closed point.

    Construction re-checks that the defining equation and all m+2 partials
    vanish at (x, y) for the supplied single-point jets.
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
    mask[i], and it is (x[i], y[i]), element indices of the jets' field as
    the jets are; mask, x and y share one shape, the jets' joint lane shape
    (x and y may be read-only broadcast views, in any integer dtype)."""

    mask: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _where(mask: np.ndarray, a: FieldArray, b: FieldArray) -> FieldArray:
    """Lane-wise a where mask holds, else b."""
    return FieldArray(a.ctx, np.where(mask, a.idx, b.idx))


def _candidate(F: FieldCtx, a, shape: tuple[int, ...]) -> tuple[FieldArray, FieldArray]:
    """The unique singular fiber candidate (x, y) per lane of the values'
    `shape`, from the coefficient values a = (a1, a2, a3, a4, a6),
    branching by characteristic.

    The branches are masks, not tests.  Where the characteristic's branch
    has no candidate (p = 2 with a1 = 0 and a3 != 0, p = 3 with a2 = 0 and
    a4 != 0) the one it computes fails dF/dy or dF/dx.  The constants are
    0-d FieldArrays (index 1 is the unit, index 3 the integer 3 for p > 3),
    so the values never meet a FieldElem."""
    a1, a2, a3, a4, a6 = a
    unit = FieldArray(F, 1)
    if F.p == 2:
        # squaring is the Frobenius, hence bijective: c ** (Q/2) inverts it
        free = a1.is_zero
        a1 = _where(free, unit, a1)
        x = _where(free, a4 ** (F.size // 2), a3 / a1)
        return x, _where(free, a6 ** (F.size // 2), (3 * (x * x) + a4) / a1)
    if F.p == 3:
        free = a2.is_zero
        x = _where(free, (-a6) ** (F.size // 3), a4 / _where(free, unit, a2))
    else:
        free = a4.is_zero
        c = -(FieldArray(F, 3) / 2)
        x = _where(free, FieldArray(F, 0), c * (a6 / _where(free, unit, a4)))
    return x, FieldArray(F, np.zeros(shape, dtype=np.int64))


def _value_stage(J: WeierstrassJets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By the formulas: per lane of the values' shape, whether F, dF/dx and
    dF/dy vanish at the candidate, and the candidate (x, y) as int64
    element indices."""
    a, shape = J.forms(J.values), J.values.shape[:-1]
    x, y = _candidate(J.field, a, shape)
    passes = np.ones(shape, dtype=bool)
    for cond in value_conditions(a, x, y):
        passes &= cond.is_zero
        if not passes.any():
            break  # every lane has failed; the rest cannot change that
    return passes, x.idx, y.idx


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
    J = WeierstrassJets(field, vals, np.zeros(vals.shape + (0,), dtype=np.int64))
    passes, x, y = _value_stage(J)
    small = np.min_scalar_type(Q - 1)
    table = ValueTable(passes, x.astype(small), y.astype(small),
                       discriminant_value(*J.forms(J.values)).is_zero)
    for a in table:
        a.flags.writeable = False
    return table


def value_keys(J: WeierstrassJets) -> tuple[ValueTable, np.ndarray] | None:
    """The field's value table and the batch's value keys sum_f v_f Q^f, v_f
    the value of the f-th varying form, in the values' shape; None where
    the field has no table."""
    table = value_table(J.field)
    if table is None:
        return None
    return table, J.values @ J.field.size ** np.arange(J.values.shape[-1])


def _gather(a: np.ndarray, tail: int, grid: tuple[int, ...],
            at: tuple[np.ndarray, ...]) -> np.ndarray:
    """The entries at the lanes ``at`` of ``a``, whose lane axes broadcast to
    ``grid`` and are followed by ``tail`` entry axes: read from ``a`` itself,
    at index 0 on every lane axis where it broadcasts (as a census's (V, 1)
    values and (1, W) gradients), so no view of the grid is indexed; an
    ``a`` that broadcasts on every lane axis gives its one lane's entries."""
    lane = a.shape[:a.ndim - tail]
    if lane == grid:
        return a[at]
    own = at[len(grid) - len(lane):]  # the lane axes are the grid's last ones
    return a[tuple(ix if n > 1 else 0 for n, ix in zip(lane, own))]


def singular_jets_closed_form(J: WeierstrassJets) -> SingularBatch:
    """Solve for the unique singular fiber candidate from batched jets,
    branching by characteristic, and keep it only where the full list of
    vanishing conditions holds.

    The value stage comes first, in the values' shape: one gather from the
    field's :class:`ValueTable` where it has one, else the candidate and
    the F, dF/dx, dF/dy tests by their formulas.  The base stage then tests
    one direction at a time on the lanes of the joint shape that have
    passed so far, the direction's g gradient columns gathered at those
    lanes from the one gradients array (see :func:`_gather`): sum_f c_f g_f
    = g6 over the forms that vary in characteristic p (the others are
    zero), c = (xy, -x^2, y, -x) for (a1, a2, a3, a4) as in
    :func:`base_condition`, formed once per call at the lanes that passed
    the values, so for p >= 5 a direction costs one product.  x and y are
    the value stage's indices, in the table's small dtype where it has
    one; values and gradients that only broadcast give mask, x and y in
    the joint shape (x and y views past the values').
    """
    F = J.field
    found = value_keys(J)
    if found is None:
        passes, x, y = _value_stage(J)
    else:
        table, key = found
        passes, x, y = table.passes[key], table.x[key], table.y[key]
    joint = J.shape
    grid = joint or (1,)  # a batch of one lane has the lane shape ()
    lanes = (passes if passes.shape == grid else np.broadcast_to(passes, grid)).ravel().nonzero()[0]
    if lanes.size:
        at = np.unravel_index(lanes, grid)
        xl, yl = (FieldArray(F, _gather(a, 0, grid, at)) for a in (x, y))
        coef = [base_coefficient(f, xl, yl) for f in varying_indices(F.p)[:-1]]
        for j in range(J.gradients.shape[-1]):
            cols = _gather(J.gradients[..., j], 1, grid, at)  # g6 last
            terms = [c * FieldArray(F, cols[..., s]) for s, c in enumerate(coef)]
            ok = sum(terms[1:], terms[0]).idx == cols[..., -1]
            # every entry broadcasting along the lanes' axes leaves one answer for all
            lanes = lanes[ok if ok.shape == lanes.shape else np.broadcast_to(ok, lanes.shape)]
            if not lanes.size:
                break
            coef = [c if not c.idx.ndim else FieldArray(F, c.idx[ok]) for c in coef]
            at = np.unravel_index(lanes, grid)
    mask = np.zeros(joint, dtype=bool)
    mask.reshape(-1)[lanes] = True
    x, y = (a if a.shape == joint else np.broadcast_to(a, joint) for a in (x, y))
    return SingularBatch(mask, x, y)


def delta_vanishes(J: WeierstrassJets) -> np.ndarray:
    """Per lane of the values' shape, whether the discriminant value
    vanishes: a gather from the field's :class:`ValueTable` where it has
    one."""
    found = value_keys(J)
    if found is None:
        return discriminant_value(*J.forms(J.values)).is_zero
    table, key = found
    return table.delta_zero[key]


def singular_jets_oracle(J: WeierstrassJets) -> SingularBatch:
    """Exhaustively scan the affine fiber of every lane of a batch, taken as
    by :func:`singular_jets_closed_form`: a lane's witness is its first (x,
    y) in index order, x outer, where all :func:`vanishing_conditions`
    vanish; x = y = 0 off the mask.  Each pass tests a run of points against
    a chunk of lanes, cut from the values and gradients arrays, its int64
    temporaries within ``_ROW_BUDGET`` bytes.  The Z-partial at (0:1:0) is
    checked instead of the chart at infinity."""
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
        a = J.forms(_gather(J.values, 1, grid, at))
        grads = _gather(J.gradients, 2, grid, at)
        directions = [J.forms(grads[..., j]) for j in range(grads.shape[-1])]
        for t0 in range(0, points, run):
            t = np.arange(t0, min(t0 + run, points))[:, None]
            hit = np.ones((len(t), todo.size), dtype=bool)
            xy = (FieldArray(F, c) for c in divmod(t, F.size))
            for cond in vanishing_conditions(a, directions, *xy):
                hit &= cond.is_zero
                if not hit.any():
                    break
            new = (todo < 0) & hit.any(axis=0)
            todo[new] = t0 + hit[:, new].argmax(axis=0)
    x, y = np.divmod(np.where(first >= 0, first, 0).reshape(joint), F.size)
    return SingularBatch((first >= 0).reshape(joint), x, y)


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
    """Uniform draw from the coefficient space: the F_p slots of the varying
    forms are row 0 of :func:`~elldens.draws.slot_rows` for ``seed``.
    Before any slot is drawn, a datum whose forms' int64 term arrays ((m +
    1) exponents and n digits a monomial) would pass ``_POINT_CAP`` bytes
    is refused with FeasibilityError."""
    cols = total_slots(m, k, field)
    nbytes = 8 * (m + 1 + field.n) * (cols // field.n)
    if nbytes > _POINT_CAP:
        raise FeasibilityError(f"a random datum with k={k} on P^{m} over F_{field.size} "
                               f"needs {nbytes} bytes of term arrays > cap {_POINT_CAP}")
    return weierstrass_from_slots(m, k, field, slot_rows(field.p, cols, [seed])[0])


def total_slots(m: int, k: int, field: FieldCtx) -> int:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return sum(dim_space(m, d) for d in section_degrees(field.p, k)) * field.n


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
        p, n = _stored_int(fobj["p"], "p"), _stored_int(fobj["n"], "n")
        modulus = tuple(_stored_int(c, "a modulus entry") for c in fobj["modulus"])
        field = FieldCtx(p, n, modulus)
        if bad := [c for c in modulus if not 0 <= c < field.p]:  # FieldCtx reduces mod p
            raise ValueError(f"modulus entry {bad[0]} is not a digit 0..{field.p - 1}")
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
