"""Homogeneous forms on P^m over a finite field: sparse forms, their F_p
slot vectors, products on term tables and exact division.

A :class:`Section` is a degree-d form in m+1 variables x_0..x_m, stored as
its nonzero terms: int64 exponent rows (summing to d) and F_p coordinate
rows, the digit rows of slot vectors, term tables and stored records.
Scalar loops read a dict of field elements, :meth:`Section.terms`.
Forms are not evaluated here: their values and gradients at closed points
come from the jet products of :mod:`elldens.base`, which the tests check
against a scalar evaluation of the forms and of their affine charts with
formal partials.

Monomial order used throughout (a Section's rows, serialization, slot
vectors, division) is graded lex with x_0 > x_1 > ... > x_m; for a fixed
degree this is plain descending tuple order.

Form products have one implementation, on term tables (:class:`TermTable`).
Homogeneity fixes the exponent of x_0, so it is dropped; the other exponents
e_1..e_m of a term map to the Kronecker key

    e_1 + e_2 B_1 + e_3 B_1 B_2 + ... + e_m B_1 ... B_(m-1)

of a :class:`KeyLayout`, and a table holds a form's keys, ascending, and one
row of F_p coordinates per key (coefficients of alpha^0 .. alpha^(n-1), for
F_{p^n} = F_p[alpha]).  While no exponent of a result reaches its base,
keys add without carries: a term pair's key is the sum of the terms' keys,
so a product's keys lie between the sums of the factors' first and last
keys.  A pair's coefficient is the convolution of the two rows, width
W = 2n - 1.  The pairs are formed in blocks of about ``_PAIR_CHUNK`` and
summed in int64.  A key span (largest pair key - smallest + 1) no wider
than the pairs or one block takes a (W, span) accumulator, each pair added
at its key's column with no sort; over F_p its one row is compacted as it
stands, with no fold and no transpose.  A wider span (sparse forms, mostly
at m >= 3, where the B_1 ... B_m box is mostly keys of no monomial of
degree d) has its pairs sorted by key and the rows of equal keys summed,
block by block, so memory follows the terms present, never the span.  A
sum merges the two ascending runs (one stable sort) and sums the rows of
equal keys.  Rows are reduced mod p, alpha^n .. alpha^(2n-2) folded back
with the modulus (``FieldCtx._red``), and zero rows dropped.
Sums, differences, negatives and integer multiples of forms exist only on
tables, so a polynomial in forms is expanded without a :class:`Section` in
between; x_0's exponent is restored from the degree, and the rows sorted
into grlex order, when a table becomes a Section again.

``Section * Section`` (:func:`_product`) multiplies the two tables under
bases B_j one above the largest exponent of x_j in f plus that in g
(d1 + d2 + 1 for dense forms).  The discriminant
(:func:`~elldens.weier.discriminant`) expands its whole formula on the
tables of a1..a6 under one shared base of 12k + 1 per variable, above
every exponent of a form of degree <= 12k.

Exactness: an entry sums at most min(N1, N2) * n products of two values
below p, N the factors' term counts.  A product whose bound
min(N1, N2) * n * (p-1)^2 reaches 2^63, or a layout whose largest key
B_1 ... B_m - 1 does, raises :class:`~elldens.errors.FeasibilityError`
instead of wrapping.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import FeasibilityError
from .gf import FieldCtx, FieldElem, power

_PAIR_CHUNK = 1 << 12  # term pairs formed per block


def _check_ring_degree(m: int, d: int) -> None:
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")


def dim_space(m: int, d: int) -> int:
    """Number of degree-d monomials in m+1 variables: C(d+m, m)."""
    _check_ring_degree(m, d)
    return comb(d + m, m)


@lru_cache(maxsize=None)
def monomials(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """``monomial_array(m, d)`` as a tuple of exponent tuples."""
    return tuple(zip(*monomial_array(m, d).T.tolist()))


@lru_cache(maxsize=None)
def monomial_array(m: int, d: int) -> np.ndarray:
    """All exponents of degree d in m+1 variables, descending grlex, as a
    read-only (dim, m+1) int64 array, by stars and bars: bars b_0 < ... <
    b_(m-1) among d + m places, their combinations read in reverse, give
    e_i = b_i - b_(i-1) - 1 (b_(-1) = -1, b_m = d + m)."""
    dim = dim_space(m, d)
    bars = np.full((dim, m + 2), d + m, dtype=np.int64)
    bars[:, 0] = -1
    combos = itertools.chain.from_iterable(itertools.combinations(range(d + m), m))
    bars[::-1, 1:-1] = np.fromiter(combos, dtype=np.int64, count=dim * m).reshape(dim, m)
    arr = np.diff(bars, axis=1) - 1
    arr.flags.writeable = False
    return arr


class Section:
    """A homogeneous form of degree d in m+1 variables over a finite field,
    with products, powers e >= 1 and exact division; sums live on :class:`TermTable`.

    Its nonzero terms are ``exponents``, an (N, m+1) int64 array, and
    ``coefficients``, an (N, n) int64 array of F_p coordinate rows reduced
    mod p, in descending grlex order, so equal forms hold equal arrays.
    """

    __slots__ = ("m", "d", "field", "exponents", "coefficients")

    def __init__(self, m: int, d: int, field: FieldCtx, coeffs=None):
        """The form of a dict from exponent tuples to field elements."""
        _check_ring_degree(m, d)
        clean: dict[tuple[int, ...], tuple[int, ...]] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(expo)
            if len(expo) != m + 1 or any(e < 0 for e in expo) or sum(expo) != d:
                raise ValueError(f"exponent tuple {expo} invalid for (m={m}, d={d})")
            if not (c.ctx is field or c.ctx == field):
                raise ValueError("coefficient from a different field context")
            if c:
                clean[expo] = c.coeffs
        order = sorted(clean, reverse=True)  # one degree: descending tuple order is grlex
        self.m, self.d, self.field = m, d, field
        self.exponents = np.array(order, dtype=np.int64).reshape(-1, m + 1)
        self.coefficients = np.array([clean[e] for e in order],
                                     dtype=np.int64).reshape(-1, field.n)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _trusted(cls, m: int, d: int, field: FieldCtx,
                 exponents: np.ndarray, coefficients: np.ndarray) -> "Section":
        """A section on term rows the caller guarantees valid for (m, d,
        field), in descending grlex order, no coefficient row zero: ring results
        skip the per-term checks and the sort."""
        s = object.__new__(cls)
        s.m, s.d, s.field = m, d, field
        s.exponents, s.coefficients = exponents, coefficients
        return s

    @classmethod
    def zero(cls, m: int, d: int, field: FieldCtx) -> "Section":
        _check_ring_degree(m, d)
        return cls._trusted(m, d, field, np.zeros((0, m + 1), dtype=np.int64),
                            np.zeros((0, field.n), dtype=np.int64))

    # -- predicates -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not len(self.exponents)

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return (
            self.m == other.m
            and self.d == other.d
            and self.field == other.field
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.coefficients, other.coefficients)
        )

    def __repr__(self):
        body = " + ".join(f"{tuple(c)}*x^{tuple(e)}" for e, c in
                          zip(self.exponents[:4].tolist(), self.coefficients[:4].tolist()))
        more = "..." if len(self.exponents) > 4 else ""
        return f"Section(m={self.m}, d={self.d}, {body}{more})"

    def terms(self) -> dict[tuple[int, ...], FieldElem]:
        """The nonzero terms as a new dict from exponent tuples to field
        elements, in descending grlex order, for scalar loops; built on
        each call, so a loop takes it once."""
        fld, rows = self.field, self.coefficients
        if fld._elems is None:  # one row at a time: an index p-adically may pass 2^63
            elems = map(fld.elem, map(tuple, rows.tolist()))
        else:  # interned: rows @ place are indices below 4096
            elems = map(fld._elems.__getitem__, (rows @ fld.place).tolist())
        # columns to lists, then zip: no list object per term on the way to its tuple
        return dict(zip(zip(*self.exponents.T.tolist()), elems))

    # -- arithmetic -------------------------------------------------------------

    def _check_ring(self, other: "Section"):
        if self.m != other.m or self.field != other.field:
            raise ValueError("sections live in different ambient rings")

    def __mul__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        self._check_ring(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Section":
        return power(self, e)

    # -- serialization -----------------------------------------------------------

    def to_obj(self) -> list:
        """A list of [exponents, coefficient-int-vector] records, in descending
        monomial order."""
        return [list(rec) for rec in zip(self.exponents.tolist(), self.coefficients.tolist())]

    @classmethod
    def from_obj(cls, m: int, d: int, field: FieldCtx, obj: list) -> "Section":
        coeffs = {}
        for rec in obj:  # ints only: a float is not truncated, nor is JSON's true read as 1
            if len(rec) != 2 or any(type(x) is not int for x in (*rec[0], *rec[1])):
                raise ValueError(f"section record {rec!r} is not [exponents, digits] of ints")
            if any(not 0 <= c < field.p for c in rec[1]):  # not reduced mod p
                raise ValueError(f"section record {rec!r} holds a digit outside 0..{field.p - 1}")
            if tuple(rec[0]) in coeffs:
                raise ValueError(f"monomial {rec[0]} has more than one record")
            coeffs[tuple(rec[0])] = field.elem(tuple(rec[1]))
        return cls(m, d, field, coeffs)


class KeyLayout(NamedTuple):
    """Kronecker keys of monomials: the exponent of x_j (j = 1..m) is below
    ``base[j-1]`` and weighs ``place[j-1]`` in the key."""

    base: np.ndarray   # (m,) int64
    place: np.ndarray  # (m,) int64

    @classmethod
    def of(cls, base, m: int, d: int) -> "KeyLayout":
        """The layout with these bases, for forms up to degree d on P^m;
        FeasibilityError when its largest key reaches 2^63."""
        place = [1]
        for b in base:
            place.append(place[-1] * int(b))  # Python ints: the check cannot wrap
        if place[-1] > 1 << 63:  # the largest key is place[-1] - 1
            raise FeasibilityError(
                f"the monomial keys of a degree-{d} product on P^{m} exceed the int64 range")
        return cls(np.array(base, dtype=np.int64), np.array(place[:-1], dtype=np.int64))


class TermTable:
    """A form's terms as arrays (see the module notes): distinct int64 keys
    under one :class:`KeyLayout` and an (N, n) int64 row of F_p coordinates
    per key, reduced mod p and never all zero.

    Tables of one ring and layout add, subtract, negate, multiply by ints
    and multiply; the caller picks a layout whose bases exceed every
    exponent the results reach.  :meth:`section` turns a table back into a
    :class:`Section`.
    """

    __slots__ = ("m", "d", "field", "layout", "keys", "coords")

    def __init__(self, m: int, d: int, field: FieldCtx, layout: KeyLayout,
                 keys: np.ndarray, coords: np.ndarray):
        self.m, self.d, self.field, self.layout = m, d, field, layout
        self.keys, self.coords = keys, coords

    @classmethod
    def of(cls, s: Section, layout: KeyLayout) -> "TermTable":
        """The table of s: its exponent rows' keys (x_0 dropped), ascending,
        and its coefficient rows."""
        keys = s.exponents[:, 1:] @ layout.place
        order = keys.argsort()
        return cls(s.m, s.d, s.field, layout, keys[order], s.coefficients[order])

    def _new(self, d: int, keys: np.ndarray, coords: np.ndarray) -> "TermTable":
        return TermTable(self.m, d, self.field, self.layout, keys, coords)

    def _reduced(self, d: int, keys: np.ndarray, vals: np.ndarray) -> "TermTable":
        """The table of ascending keys and int64 value rows of n or 2n - 1 (a
        product's) entries, reduced mod p in place, alpha^n .. folded back,
        zero rows dropped."""
        fld = self.field
        vals %= fld.p
        if vals.shape[1] > fld.n:  # alpha^(n+k) = _red[k]
            vals = (vals[:, :fld.n] + vals[:, fld.n:] @ np.array(fld._red, dtype=np.int64)) % fld.p
        live = vals.any(axis=1)
        return self._new(d, keys[live], vals[live])

    def _check(self, other: "TermTable"):
        if self.layout is not other.layout or self.m != other.m or (
                self.field is not other.field and self.field != other.field):
            raise ValueError("term tables of different rings or key layouts")

    def __add__(self, other: "TermTable") -> "TermTable":
        return self._sum(other, 1)

    def __sub__(self, other: "TermTable") -> "TermTable":
        return self._sum(other, -1)

    def _sum(self, other: "TermTable", sign: int) -> "TermTable":
        """self + sign * other, a merge of the two ascending key runs."""
        if not isinstance(other, TermTable):
            return NotImplemented
        self._check(other)
        if not len(other.keys):
            return self
        if not len(self.keys):
            return other if sign == 1 else -other
        if self.d != other.d:
            raise ValueError(f"cannot add degrees {self.d} and {other.d}")
        rows = other.coords if sign == 1 else -other.coords  # reduced mod p once summed
        return self._reduced(self.d, *_collect([(self.keys, self.coords), (other.keys, rows)]))

    def __neg__(self) -> "TermTable":
        return self._new(self.d, self.keys, -self.coords % self.field.p) if len(self.keys) else self

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            c = other % p
            if not c or not len(self.keys):
                return self._new(self.d, self.keys[:0], self.coords[:0])
            if (p - 1) * c >= 1 << 63:
                raise FeasibilityError(
                    f"a multiple by {c} over F_{p}^{self.field.n} may exceed the int64 range")
            return self._new(self.d, self.keys, self.coords * c % p)
        if not isinstance(other, TermTable):
            return NotImplemented
        self._check(other)
        # one exact integer convolution (see the module notes)
        fld, d = self.field, self.d + other.d
        p, n = fld.p, fld.n
        kf, cf, kg, cg = self.keys, self.coords, other.keys, other.coords
        if not len(kf) or not len(kg):
            return self._new(d, kf[:0], cf[:0])
        if min(len(kf), len(kg)) * n * (p - 1) ** 2 >= 1 << 63:
            raise FeasibilityError(
                f"a product of degree-{self.d} and degree-{other.d} forms over "
                f"F_{p}^{n} may exceed the int64 range")
        step = max(1, _PAIR_CHUNK // len(kg))
        lo = int(kf[0]) + int(kg[0])  # ascending keys: the pairs' least and largest
        span = int(kf[-1]) + int(kg[-1]) - lo + 1
        if span <= max(len(kf) * len(kg), _PAIR_CHUNK):
            # one accumulator column per key of the span, no larger than the
            # pairs or one block of them, and summing into it needs no sort
            acc = np.zeros((2 * n - 1, span), dtype=np.int64)
            for i in range(0, len(kf), step):
                at = (kf[i:i + step, None] - lo + kg).ravel()
                for a in range(n):  # coefficient polynomials in alpha multiply by convolution
                    for b in range(n):
                        np.add.at(acc[a + b], at, (cf[i:i + step, a, None] * cg[:, b]).ravel())
            if n == 1:  # the one coordinate row: nothing to fold, no transpose
                acc %= p
                live = acc[0].nonzero()[0]
                return self._new(d, live + lo, acc[0, live, None])
            return self._reduced(d, np.arange(lo, lo + span, dtype=np.int64), acc.T)
        held, merged = [], 0  # (keys, value rows) blocks; once merged, held[0] has `merged` keys
        for i in range(0, len(kf), step):
            pv = np.zeros((len(kf[i:i + step]) * len(kg), 2 * n - 1), dtype=np.int64)
            for a in range(n):
                for b in range(n):
                    pv[:, a + b] += (cf[i:i + step, a, None] * cg[:, b]).ravel()
            held.append(((kf[i:i + step, None] + kg).ravel(), pv))
            # summing once the new pairs outnumber the distinct keys bounds the
            # memory, and re-sorting those keys costs no more than the pairs
            if sum(len(b[0]) for b in held) >= merged + max(_PAIR_CHUNK, merged):
                held = [_collect(held)]
                merged = len(held[0][0])
        return self._reduced(d, *_collect(held))

    __rmul__ = __mul__

    def section(self) -> Section:
        """The form as a :class:`Section`: exponents decoded from the keys,
        x_0's restored from the degree, rows in descending grlex order."""
        expo = self.keys[:, None] // self.layout.place % self.layout.base
        expo = np.concatenate([self.d - expo.sum(axis=1, keepdims=True), expo], axis=1)
        order = np.lexsort(expo.T[::-1])[::-1]  # x_0's exponent the primary key
        return Section._trusted(self.m, self.d, self.field, expo[order], self.coords[order])


def _product(f: Section, g: Section) -> Section:
    """f * g: the product of their term tables, under bases one above the
    largest exponent of each variable in f plus that in g."""
    m, d, fld = f.m, f.d + g.d, f.field
    if f.is_zero or g.is_zero:
        return Section.zero(m, d, fld)
    top = f.exponents[:, 1:].max(axis=0) + g.exponents[:, 1:].max(axis=0)
    layout = KeyLayout.of(top + 1, m, d)
    return (TermTable.of(f, layout) * TermTable.of(g, layout)).section()


def _collect(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the (keys, value rows) blocks, ascending, and the
    sum of the value rows at each."""
    keys, vals = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    order = keys.argsort(kind="stable")  # ascending runs: merged, not sorted afresh
    keys, vals = keys[order], vals[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
    return keys[first], np.add.reduceat(vals, first, axis=0)


def exact_divide(f: Section, g: Section, f_terms: dict | None = None) -> Section | None:
    """The quotient h with f = g * h, or None when g does not divide f.

    Single-divisor reduction in descending grlex order; the computed quotient
    is re-checked by multiplying back before it is returned.  A caller that
    divides one f by many g passes ``f.terms()`` once as ``f_terms``, unchanged.
    """
    if not isinstance(f, Section) or not isinstance(g, Section):
        raise TypeError("exact_divide expects two sections")
    f._check_ring(g)
    if g.is_zero:
        raise ValueError("division by the zero section")
    if f.is_zero:
        return Section.zero(f.m, max(f.d - g.d, 0), f.field)
    if f.d < g.d:
        return None
    g_terms, rem = g.terms(), (f.terms() if f_terms is None else dict(f_terms))
    lead_g, lead_c = next(iter(g_terms.items()))  # the terms come in descending grlex
    quot: dict[tuple[int, ...], FieldElem] = {}
    while rem:
        lead_r = max(rem)  # all of degree f.d: grlex is tuple order
        diff = tuple(a - b for a, b in zip(lead_r, lead_g))
        if any(e < 0 for e in diff):
            return None
        c = rem[lead_r] / lead_c
        quot[diff] = c
        for expo, gc in g_terms.items():  # rem -= c x^diff g, dropping terms that cancel
            expo = tuple(a + b for a, b in zip(diff, expo))
            if t := rem.pop(expo, f.field.zero) - c * gc:
                rem[expo] = t
    h = Section(f.m, f.d - g.d, f.field, quot)
    if g * h != f:  # exactness is always re-verified
        return None
    return h


def section_from_slots(m: int, d: int, field: FieldCtx, slots) -> Section:
    """Build a section from a flat vector of F_p coordinates: for monomial i
    (descending grlex), entries [i*n, (i+1)*n) are its coefficient vector.
    A vector of any other length than dim_space(m, d) * n is refused."""
    monos, n = monomial_array(m, d), field.n
    rows = np.asarray(slots, dtype=np.int64)
    if rows.shape != (len(monos) * n,):
        raise ValueError(f"a degree-{d} form on P^{m} over F_{field.p}^{n} takes "
                         f"{len(monos) * n} slots, got shape {rows.shape}")
    rows = rows.reshape(-1, n) % field.p
    live = rows.any(axis=1)
    return Section._trusted(m, d, field, monos[live], rows[live])


@lru_cache(maxsize=None)
def _monomial_index(m: int, d: int) -> dict[tuple[int, ...], int]:
    """The position of each exponent tuple in ``monomials(m, d)``."""
    return {e: i for i, e in enumerate(monomials(m, d))}


def section_slots(s: Section) -> np.ndarray:
    """The flat int64 F_p coordinate vector of a section, inverse to
    :func:`section_from_slots` (same layout)."""
    out = np.zeros((dim_space(s.m, s.d), s.field.n), dtype=np.int64)
    at = np.fromiter(map(_monomial_index(s.m, s.d).__getitem__, zip(*s.exponents.T.tolist())),
                     np.int64, len(s.exponents))
    out[at] = s.coefficients
    return out.ravel()
