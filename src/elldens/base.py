"""Closed points of P^m over F_q and first-order jets of forms at them.

A closed point of degree e is a Frobenius orbit of size e of points of
P^m(F_{q^e}); it is stored through a normalized representative (first nonzero
coordinate equal to 1, chart = index of that coordinate) chosen canonically
as the orbit's lexicographically smallest coordinate tuple, ordering field
elements by coefficient sequence.

The first-order jet of a form at a closed point is its value together with
the gradient in the chart's local coordinates; vanishing of the pair does not
depend on the chart.  ``jet_space_map`` expresses coefficient vectors ->
jets as a matrix over F_p by restriction of scalars.  It is the one jet
kernel: ``jet_at`` multiplies a form's slot vector by the matrix of its
degree at the point.  Nothing is memoized, since one scan meets each
(degree, point) pair once.  A zero form, such as the coefficients a1, a2,
a3 of every datum in characteristic >= 5, has the zero jet without a matrix.

The matrix is computed on discrete logs in the residue field F_Q (the
field's :class:`~elldens.gf.LogTables`, to a primitive element g): the value
entry of a monomial x^beta has log beta . log x mod (Q-1) over the chart's
local coordinates x; a gradient entry adds log(beta_j mod p) and subtracts
log x_j; the base-field basis image emb(g_base)^t adds t log emb(g_base).
The log of 0 is taken as zero_log = (d + 2)(Q - 1), d the largest degree,
above every sum of the logs of nonzero factors, so an entry is zero exactly
when its log reaches zero_log; the integer 0 = beta_j mod p counts twice,
since subtracting the log of x_j = 0 takes one zero_log off again.  The
antilog and digit tables then give each nonzero entry's F_p coordinates.  Matrix entries have dtype
``np.min_scalar_type(p - 1)`` (uint8 for p <= 251, uint16 from p = 257).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import zeta as _zeta
from .errors import FeasibilityError
from .gf import (Embedding, FieldCtx, FieldElem, FieldMismatchError, embedding,
                 make_field, prime_power)
from .sections import Section, dim_space, monomial_array, section_slots

DEFAULT_ENUM_CAP = 1 << 26


@dataclass(frozen=True)
class Jet:
    """Value and local-coordinate gradient of a form at a closed point."""

    value: FieldElem
    gradient: tuple[FieldElem, ...]

    @property
    def vanishes(self) -> bool:
        return not self.value and not any(self.gradient)


@dataclass(frozen=True)
class ClosedPoint:
    """A degree-e closed point of P^m over F_q, via a normalized orbit
    representative with coordinates in the residue field F_{q^e}."""

    m: int
    q: int
    degree: int
    chart: int
    coords: tuple[FieldElem, ...]
    field: FieldCtx = dc_field(repr=False)
    emb: Embedding = dc_field(repr=False)  # base field F_q -> residue field

    def local_coords(self) -> tuple[FieldElem, ...]:
        """The m non-chart coordinates, in index order."""
        return self.coords[:self.chart] + self.coords[self.chart + 1:]

    def __repr__(self):
        pts = ":".join(str(c.idx) for c in self.coords)
        return f"ClosedPoint(deg={self.degree}, ({pts}), chart={self.chart})"


def enumerate_points(m: int, fld: FieldCtx) -> list[tuple[FieldElem, ...]]:
    """All points of P^m(fld) as normalized tuples (leading 1 at the chart)."""
    pts: list[tuple[FieldElem, ...]] = []
    elems = list(fld.elements())
    for chart in range(m + 1):
        free = m - chart

        def rec(prefix):
            if len(prefix) == free:
                pts.append(
                    (fld.zero,) * chart + (fld.one,) + tuple(prefix)
                )
                return
            for e in elems:
                rec(prefix + [e])

        rec([])
    return pts


def _frobenius_point(pt: tuple[FieldElem, ...], q: int) -> tuple[FieldElem, ...]:
    return tuple(c ** q for c in pt)


def _point_key(pt: tuple[FieldElem, ...]):
    return tuple(c.coeffs for c in pt)


def closed_points_up_to(
    m: int, q: int, r: int, cap: int | None = None
) -> list[ClosedPoint]:
    """All closed points of degree <= r, grouped from Frobenius orbits.

    Counts per degree are cross-checked against the Moebius-inverted values;
    enumeration size is guarded by ``cap`` (default 2**26 rational points).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    p, rr = prime_power(q)
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    table = _zeta.zeta_table(m, q, min(r, _zeta.MAX_TRUNCATION)) if r <= _zeta.MAX_TRUNCATION else None
    total_rational = sum(
        sum(q ** (e * i) for i in range(m + 1)) for e in range(1, r + 1)
    )
    if total_rational > cap:
        raise FeasibilityError(
            f"enumerating P^{m} over F_{q} up to degree {r} needs "
            f"{total_rational} rational points > cap {cap}"
        )
    base = make_field(p, rr)
    out: list[ClosedPoint] = []
    for e in range(1, r + 1):
        res = make_field(p, rr * e)
        emb = embedding(base, res)
        seen: set = set()
        found: list[ClosedPoint] = []
        for pt in enumerate_points(m, res):
            key = _point_key(pt)
            if key in seen:
                continue
            orbit = [pt]
            cur = _frobenius_point(pt, q)
            while _point_key(cur) != key:
                orbit.append(cur)
                cur = _frobenius_point(cur, q)
            for o in orbit:
                seen.add(_point_key(o))
            if len(orbit) != e:
                continue  # defined over a proper subfield; counted earlier
            rep = min(orbit, key=_point_key)
            chart = next(i for i, c in enumerate(rep) if c)
            found.append(
                ClosedPoint(
                    m=m, q=q, degree=e, chart=chart, coords=rep,
                    field=res, emb=emb,
                )
            )
        if table is not None and len(found) != table.a[e - 1]:
            raise AssertionError(
                f"orbit enumeration found {len(found)} degree-{e} points, "
                f"expected {table.a[e - 1]}"
            )
        out.extend(found)
    return out


def jet_at(s: Section, P: ClosedPoint) -> Jet:
    """First-order jet of a form at P, in P's chart coordinates: its slot
    vector times the jet matrix of its degree at P (see the module notes).

    Equals (value, gradient) of the dehomogenized form at the local
    coordinates of the representative; coefficients pass through P.emb.
    """
    if s.m != P.m:
        raise ValueError("form and point live on different projective spaces")
    if s.field != P.emb.src:
        raise FieldMismatchError("form's field is not the point's base field")
    res = P.field
    if s.is_zero:
        return Jet(value=res.zero, gradient=(res.zero,) * P.m)
    coords = jet_space_map((s.d,), P).matrix @ section_slots(s) % res.p
    idx = coords.reshape(P.m + 1, res.n) @ res.p ** np.arange(res.n)
    value, *grad = map(res.from_index, idx.tolist())
    return Jet(value=value, gradient=tuple(grad))


@dataclass(frozen=True)
class JetSpaceMap:
    """Matrix over F_p of (coefficient vectors of forms of the given degrees)
    -> (their jets at one closed point), after restriction of scalars.

    Row layout: section-major, then entry (0 = value, 1..m = gradient), then
    residue-field coordinate; rows = len(degrees)*(m+1)*n_res.  Column
    layout: section-major, then monomial (descending grlex), then base-field
    coordinate; cols = sum_i dim_space(m, d_i) * n_base.  Entries come from
    the residue field's log/antilog/digit tables and have dtype
    ``np.min_scalar_type(p - 1)``.
    """

    matrix: np.ndarray
    rows: int
    cols: int
    degrees: tuple[int, ...]
    point: ClosedPoint

    def row_index(self, section_idx: int, entry: int, coord: int) -> int:
        n_res = self.point.field.n
        m = self.point.m
        return (section_idx * (m + 1) + entry) * n_res + coord


def jet_space_map(degrees: tuple[int, ...], P: ClosedPoint) -> JetSpaceMap:
    """Assemble the jet evaluation matrix at P for one form per degree."""
    res, m, r = P.field, P.m, P.emb.src.n
    tabs = res.log_tables()
    order = res.size - 1
    width = (m + 1) * res.n
    cols = sum(dim_space(m, d) for d in degrees) * r
    mat = np.zeros((len(degrees) * width, cols), dtype=tabs.digits.dtype)
    # see the module notes for zero_log
    zero_log = (max(degrees, default=0) + 2) * order
    x_log = np.array([tabs.log[x.idx] if x else zero_log for x in P.local_coords()],
                     dtype=np.int64)
    int_log = tabs.log[:res.p].copy()  # log of beta_j mod p in F_p
    int_log[0] = 2 * zero_log
    # logs of the base-field basis images emb(g)^t; only t = 0 occurs when
    # r = 1, where g itself is 0
    basis_log = np.arange(r) * tabs.log[P.emb.gen_image.idx] % order
    local = [j for j in range(m + 1) if j != P.chart]
    col = 0
    for s_idx, d in enumerate(degrees):
        beta = monomial_array(m, d)[:, local]  # (dim, m)
        dim = len(beta)
        val_log = beta @ x_log
        # d/dx_j x^beta = (beta_j mod p) x^(beta - e_j)
        grad_log = val_log[:, None] + int_log[beta % res.p] - x_log
        logs = np.concatenate([val_log[:, None], grad_log], axis=1)[:, :, None] + basis_log
        idx = np.where(logs < zero_log, tabs.antilog[logs % order], 0)
        block = tabs.digits[idx]  # (dim, entry, t, coord)
        mat[s_idx * width:(s_idx + 1) * width, col:col + dim * r] = \
            block.transpose(1, 3, 0, 2).reshape(width, dim * r)
        col += dim * r
    return JetSpaceMap(matrix=mat, rows=mat.shape[0], cols=cols,
                       degrees=tuple(degrees), point=P)
