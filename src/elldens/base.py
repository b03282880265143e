"""Closed points of P^m over F_q and first-order jets of forms at them.

A closed point of degree e is a Frobenius orbit of size e of points of
P^m(F_{q^e}); it is stored through a normalized representative (first nonzero
coordinate equal to 1, chart = index of that coordinate) chosen canonically
as the orbit's lexicographically smallest coordinate tuple, ordering field
elements by coefficient sequence (:func:`~elldens.gf.coefficient_key`).  The
points are listed without state: a normalized point stands for its orbit
when it precedes each of its conjugates in the listing of P^m(F_{q^e}), a
rule each point checks on its own, over whole index arrays.

The first-order jet of a form at a closed point is its value together with
the gradient in the chart's local coordinates; vanishing of the pair does not
depend on the chart.  Over F_p, by restriction of scalars, coefficient vectors
-> jets is one matrix per form: each form's jet is a linear image of its own
coefficients only, so the joint map is block-diagonal and only its diagonal
blocks are built.  A :class:`PointBlock` (points of one residue field) is the
unit of one build and one product: ``jet_space_map`` writes its points' rows,
as F_p digits, into the block's :class:`JetKernel`, the one F_p product
kernel, and ``jet_at`` multiplies slot vectors, a datum's or a Monte-Carlo
batch of draws, by it and returns the jets as residue-field element indices,
the one format in which jets leave this module: over F_p a digit is the
index, else a Horner sum over the digit axis gives sum_c digit_c p^c, the
index ``FieldCtx.place`` encodes, with no integer matmul.  Products run in float32
while every sum of ``cols`` products of F_p digits (cols the widest form's
columns) stays below 2^24, in float64 below 2^53, and are refused past that,
all by :func:`exact_float_dtype`.  ``scan_blocks`` is the one memo of point blocks,
for scans, Monte-Carlo and its discriminant probe alike, with one entry per
point degree e (and m, q, form degrees): it cuts the degree-e points, in
listing order, into blocks whose float product fits ``_ROW_BUDGET`` bytes,
and keeps a block's kernel while the entry's kept digits fit that budget
too, so a point's kernel is held once whatever r reads it; ``jet_at`` builds
an unkept block's kernel for the call.

The blocks are computed on discrete logs in the residue field F_Q (the
field's :class:`~elldens.gf.LogTables`, to a primitive element g): the value
entry of a monomial x^beta has log beta . log x mod (Q-1) over the chart's
local coordinates x; a gradient entry adds log(beta_j mod p) and subtracts
log x_j; the base-field basis image emb(g_base)^t adds t log emb(g_base).
The log of 0 is taken as zero_log = (d + 2)(Q - 1), d the largest degree,
above every sum of the logs of nonzero factors, so an entry is zero exactly
when its log reaches zero_log; the integer 0 = beta_j mod p counts twice,
since subtracting the log of x_j = 0 takes one zero_log off again.  The
antilog and digit tables then give each nonzero entry's F_p coordinates.
Block entries have dtype ``np.min_scalar_type(p - 1)`` (uint8 for p <= 251,
uint16 from p = 257).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import zeta as _zeta
from .errors import FeasibilityError
from .gf import (Embedding, FieldArray, FieldCtx, FieldElem, coefficient_key, embedding,
                 make_field, prime_power)
from .sections import dim_space, monomial_array

DEFAULT_ENUM_CAP = 1 << 26
# bytes of one point block's float product, and of the kernels (F_p digits)
# the memo keeps per point degree
_ROW_BUDGET = 1 << 20
# bytes of one Monte-Carlo chunk's slot draws, past which a chunk takes
# fewer than its 512 samples
_MC_BUDGET = 32 << 20
# bytes of one point's float product past which a PointBlock is refused: a
# block holds at least one point, and building it takes a few times this
_POINT_CAP = 1 << 28
_SCAN_SHAPES = 16  # (m, q, point degree, form degrees) whose blocks are memoized


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


def _check_enum_cap(m: int, q: int, r: int, cap: int | None = None) -> None:
    """Raise FeasibilityError when listing the closed points of P^m over F_q
    of degree <= r passes ``cap`` rational points (default 2**26): the
    partial sums of #P^m(F_{q^e}) over e, stopping at the first past the
    cap, which the message does not print: at large r neither the sum nor
    its decimal digits are cheap."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    total = 0
    for e in range(1, r + 1):
        total += _zeta.projective_points(m, q ** e)
        if total > cap:
            raise FeasibilityError(f"enumerating P^{m} over F_{q} up to degree {r} needs "
                                   f"more rational points than cap {cap}")


def closed_points_up_to(
    m: int, q: int, r: int, cap: int | None = None
) -> list[ClosedPoint]:
    """All closed points of degree <= r, by degree.

    The normalized points of P^m(F_{q^e}) are listed chart by chart, free
    coordinates in element-index order, the first free coordinate outermost.
    A degree-e point is kept where it strictly precedes each of its e - 1
    Frobenius conjugates in that listing, which also drops the points of
    smaller orbits, and is stored as the conjugate with the smallest
    coordinate tuple under :func:`~elldens.gf.coefficient_key`.  Counts per
    degree are cross-checked against the Moebius-inverted values;
    enumeration size is guarded by ``cap`` (default 2**26 rational points),
    and listing positions and keys must fit in int64.
    """
    _check_enum_cap(m, q, r, cap)
    if (q ** r) ** (m + 1) > 1 << 63:
        raise FeasibilityError(f"points of P^{m} over F_{q ** r} have keys past int64")
    p, rr = prime_power(q)
    table = _zeta.zeta_table(m, q, r) if r <= _zeta.MAX_TRUNCATION else None
    base = make_field(p, rr)
    out: list[ClosedPoint] = []
    for e in range(1, r + 1):
        res = make_field(p, rr * e)
        emb = embedding(base, res)
        key = coefficient_key(res)
        found: list[ClosedPoint] = []
        for chart in range(m + 1):
            place = res.size ** np.arange(m - chart - 1, -1, -1, dtype=np.int64)
            pos = np.arange(res.size ** (m - chart), dtype=np.int64)
            conj = rep = pos[:, None] // place % res.size  # free coordinates
            best = key[rep] @ place
            for _ in range(e - 1):
                conj = (FieldArray(res, conj) ** q).idx
                keep = pos < conj @ place
                pos, conj, rep, best = pos[keep], conj[keep], rep[keep], best[keep]
                conj_key = key[conj] @ place
                rep = np.where((conj_key < best)[:, None], conj, rep)
                best = np.minimum(best, conj_key)
            lead = (res.zero,) * chart + (res.one,)
            found.extend(
                ClosedPoint(m=m, q=q, degree=e, chart=chart,
                            coords=lead + tuple(map(res.from_index, row)),
                            field=res, emb=emb)
                for row in rep.tolist())
        if table is not None and len(found) != table.a[e - 1]:
            raise AssertionError(
                f"orbit enumeration found {len(found)} degree-{e} points, "
                f"expected {table.a[e - 1]}"
            )
        out.extend(found)
    return out


def exact_float_dtype(cols: int, p: int) -> type[np.floating]:
    """The smallest float dtype in which products of F_p digit vectors of
    length ``cols`` are exact: each sum has cols terms below (p-1)^2, float32
    holds every integer below 2^24 and float64 every one below 2^53.  Raise
    FeasibilityError when neither does."""
    bound = cols * (p - 1) ** 2
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise FeasibilityError(
        f"a float64 product over {cols} slots mod {p} may round: "
        f"{cols}*({p}-1)^2 >= 2^53")


class JetKernel:
    """Exact products over F_p of slot vectors with block-diagonal rows.

    The slot vector is the concatenation of one column slice per form, and
    each form's rows meet only its own slice: ``blocks[f]`` holds form f's
    rows against its ``blocks[f].shape[1]`` columns, the same number of rows
    for every form, as F_p digits (dtype ``np.min_scalar_type(p - 1)``).
    ``dtype`` is the smallest float dtype in which every sum is exact (see
    :func:`exact_float_dtype`); ``apply`` casts one form's block at a time to
    it.
    """

    def __init__(self, p: int, blocks):
        self.p = p
        self.dtype = exact_float_dtype(max(b.shape[1] for b in blocks), p)
        self.blocks = tuple(np.asarray(b, dtype=np.min_scalar_type(p - 1)) for b in blocks)
        for b in self.blocks:
            b.flags.writeable = False
        self.spans = tuple(itertools.pairwise(
            itertools.accumulate((b.shape[1] for b in self.blocks), initial=0)))

    def apply(self, slots: np.ndarray) -> np.ndarray:
        """F_p coordinates of slot vectors (the last axis) times the rows, in
        dtype ``np.min_scalar_type(p - 1)``: shape ``slots.shape[:-1] +
        (forms, rows per form)``."""
        x = np.asarray(slots, dtype=self.dtype)
        y = np.empty(x.shape[:-1] + (len(self.blocks), self.blocks[0].shape[0]), self.dtype)
        for f, ((a, b), rows) in enumerate(zip(self.spans, self.blocks)):
            y[..., f, :] = x[..., a:b] @ rows.astype(self.dtype).T
        # every entry is an exact integer below 2^24 in float32 and 2^53 in
        # float64, so int32 and int64 hold it; their remainder is cheaper
        # than float's, and int32's cheaper again
        wide = np.int32 if self.dtype is np.float32 else np.int64
        return (y.astype(wide) % self.p).astype(np.min_scalar_type(self.p - 1))


def _form_cols(P: ClosedPoint, degrees: tuple[int, ...]) -> list[int]:
    """The slot count of each form of the given degrees at P's base field."""
    return [dim_space(P.m, d) * P.emb.src.n for d in degrees]


@dataclass(frozen=True, eq=False)
class PointBlock:
    """Closed points of one residue field and the degrees of the forms whose
    jets ``jet_at`` takes there, in one product.  ``kernel``, when kept, is
    the points' :class:`JetKernel`, built by :func:`jet_space_map`, whose
    joint block-diagonal matrix has ``rows`` x ``cols`` entries;
    :func:`scan_blocks` holds a block's float product to ``_ROW_BUDGET``
    bytes unless it has one point, and the kept kernels of one point degree
    to ``_ROW_BUDGET`` bytes together.  ``point`` is the first point.  A
    block whose ``point_nbytes`` pass ``_POINT_CAP`` is refused with
    FeasibilityError, before any of its arrays exists."""

    degrees: tuple[int, ...]
    points: tuple[ClosedPoint, ...]
    kernel: JetKernel | None = None

    def __post_init__(self):
        if (nbytes := self.point_nbytes) > _POINT_CAP:
            raise FeasibilityError(
                f"one point's jet product for forms of degrees {self.degrees} on "
                f"P^{self.point.m} over F_{self.field.size} needs {nbytes} bytes "
                f"> cap {_POINT_CAP}")

    @property
    def point(self) -> ClosedPoint:
        return self.points[0]

    @property
    def field(self) -> FieldCtx:
        return self.point.field

    @property
    def rows(self) -> int:
        """(m+1) n_res rows per point and form."""
        return len(self.points) * len(self.degrees) * (self.point.m + 1) * self.field.n

    @property
    def cols(self) -> int:
        return sum(_form_cols(self.point, self.degrees))

    @property
    def point_nbytes(self) -> int:
        """Bytes of one point's rows in the block's float product: each
        form's (m+1) n_res rows against its own columns."""
        widths = _form_cols(self.point, self.degrees)
        itemsize = np.dtype(exact_float_dtype(max(widths), self.field.p)).itemsize
        return (self.point.m + 1) * self.field.n * sum(widths) * itemsize

    @property
    def kernel_nbytes(self) -> int:
        """Bytes of the block's kernel as stored, in F_p digits."""
        digits = np.dtype(np.min_scalar_type(self.field.p - 1)).itemsize
        return self.rows // len(self.degrees) * self.cols * digits


def jet_at(slots: np.ndarray, block: PointBlock) -> np.ndarray:
    """Jets of forms at the points of a block as int64 element indices of
    the residue field, shape ``slots.shape[:-1] + (points, forms, m+1)``:
    slot vectors on the last axis, each the concatenation of forms of
    degrees ``block.degrees`` (as :func:`~elldens.sections.section_slots`),
    times the points' jet kernel, mod p.

    Entry 0 is a form's value and entries 1..m its gradient in the point's
    chart coordinates.  One product: with the block's kept kernel, or else
    with the kernel of :func:`jet_space_map` at the block's points, built
    for this call; its F_p digits become indices here (see the module notes).
    """
    if slots.shape[-1] != block.cols:
        raise ValueError(f"slot vector of length {slots.shape[-1]} does not fit forms "
                         f"of degrees {block.degrees} on P^{block.point.m}")
    kernel = block.kernel
    if kernel is None:
        kernel = jet_space_map(block.degrees, block.points).kernel
    shape = (len(block.degrees), len(block.points), block.point.m + 1, block.field.n)
    digits = kernel.apply(slots).reshape(slots.shape[:-1] + shape).swapaxes(-4, -3)
    idx = digits[..., -1].astype(np.int64)  # over F_p the digit is the index
    for c in range(block.field.n - 2, -1, -1):  # Horner: sum_c digit_c p^c
        idx *= block.field.p
        idx += digits[..., c]
    return idx


def scan_blocks(m: int, q: int, r: int, degrees: tuple[int, ...],
                cap: int | None = None) -> tuple[PointBlock, ...]:
    """The closed points of degree <= r as :class:`PointBlock` s for forms
    of the given degrees: each degree's points in listing order, cut into
    blocks of as many points as fit a ``_ROW_BUDGET``-byte float product (at
    least one).  A block keeps its kernel, one :func:`jet_space_map` call,
    while its degree's kept kernels, stored as F_p digits, fit
    ``_ROW_BUDGET`` bytes.  Memoized per point degree: scans, Monte-Carlo
    and its discriminant probe read one degree's blocks at every r.  The
    enumeration cap is checked on every call."""
    _check_enum_cap(m, q, r, cap)
    return tuple(itertools.chain.from_iterable(
        _scan_blocks(m, q, e, tuple(degrees)) for e in range(1, r + 1)))


@lru_cache(maxsize=_SCAN_SHAPES)
def _scan_blocks(m: int, q: int, e: int, degrees: tuple[int, ...]) -> tuple[PointBlock, ...]:
    # the caller has checked its own cap
    points = tuple(P for P in closed_points_up_to(m, q, e, cap=math.inf) if P.degree == e)
    step = max(1, _ROW_BUDGET // PointBlock(degrees, points[:1]).point_nbytes)
    blocks, kept = [], 0
    for i in range(0, len(points), step):
        block = PointBlock(degrees, points[i:i + step])
        if kept + block.kernel_nbytes <= _ROW_BUDGET:
            kept += block.kernel_nbytes
            block = jet_space_map(degrees, block.points)
        blocks.append(block)
    return tuple(blocks)


def jet_space_map(degrees: tuple[int, ...], points) -> PointBlock:
    """The :class:`PointBlock` of points of one residue field, with its
    kernel: form f's rows run by point, then entry (0 = value, 1..m =
    gradient), then residue-field coordinate, (m+1)*n_res a point; its
    columns by monomial (descending grlex), then base-field coordinate,
    dim_space(m, d_f)*n_base of them.  Each point's rows are written into one
    digit matrix, the forms' columns side by side; the logs that do not
    depend on the point are taken once per block."""
    points = tuple(points)
    P0 = points[0]
    if any(P.field is not P0.field for P in points):
        raise ValueError("jet_space_map takes the points of one residue field")
    block = PointBlock(tuple(degrees), points)  # refuses a point past _POINT_CAP
    res, m, r = P0.field, P0.m, P0.emb.src.n
    tabs = res.log_tables()
    order = res.size - 1
    # see the module notes for zero_log
    zero_log = (max(degrees, default=0) + 2) * order
    int_log = tabs.log[:res.p].copy()  # log of beta_j mod p in F_p
    int_log[0] = 2 * zero_log
    # logs of the base-field basis images emb(g)^t; only t = 0 occurs when
    # r = 1, where g itself is 0
    basis_log = np.arange(r) * tabs.log[P0.emb.gen_image.idx] % order
    # every form's monomials side by side; form f's block is a column slice
    monos = [monomial_array(m, d) for d in degrees]
    beta = np.concatenate(monos).T  # (m+1, dims)
    dims = beta.shape[1]
    # d/dx_j x^beta = (beta_j mod p) x^(beta - e_j)
    beta_log = int_log[beta % res.p]
    rows = np.empty((len(points), m + 1, res.n, dims, r), dtype=tabs.digits.dtype)
    logs = np.empty((m + 1, dims, r), dtype=np.int64)  # (entry, monomial, t)
    for P, out in zip(points, rows):
        local = [j for j in range(m + 1) if j != P.chart]
        x_log = np.array([tabs.log[x.idx] if x else zero_log for x in P.local_coords()],
                         dtype=np.int64)
        logs[0] = (x_log @ beta[local])[:, None]
        logs[1:] = beta_log[local][:, :, None]
        logs[1:] += logs[:1]
        logs[1:] -= x_log[:, None, None]
        logs += basis_log
        zero = logs >= zero_log
        logs %= order
        # element indices, in place: take buffers `out` when mode='raise'
        np.take(tabs.antilog, logs, out=logs)
        logs[zero] = 0
        for c, column in enumerate(tabs.columns):
            np.take(column, logs, out=out[:, c])
    rows = rows.reshape(-1, dims * r)
    cuts = itertools.pairwise(itertools.accumulate((len(a) * r for a in monos), initial=0))
    return PointBlock(block.degrees, points, JetKernel(res.p, [rows[:, a:b] for a, b in cuts]))
