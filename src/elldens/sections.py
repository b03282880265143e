"""Homogeneous forms on P^m over a finite field, and their affine charts.

A :class:`Section` is a degree-d form in m+1 variables x_0..x_m, stored as a
sparse dict from exponent tuples (summing to d) to nonzero field elements.
Dehomogenizing on the chart x_c = 1 produces an :class:`AffinePoly` in the m
local coordinates (the remaining variables, in index order).

Monomial order used throughout (serialization, matrices, division) is graded
lex with x_0 > x_1 > ... > x_m; for a fixed degree this is plain descending
tuple order.

Form products have one implementation, on term tables (:class:`TermTable`).
Homogeneity fixes the exponent of x_0, so it is dropped; the other exponents
e_1..e_m of a term map to the Kronecker key

    e_1 + e_2 B_1 + e_3 B_1 B_2 + ... + e_m B_1 ... B_(m-1)

of a :class:`KeyLayout`, and a table holds a form's keys and one row of F_p
coordinates per key (coefficients of alpha^0 .. alpha^(n-1), for
F_{p^n} = F_p[alpha]).  While no exponent of a result reaches its base,
keys add without carries: the key of a term pair is the sum of the terms'
keys.  A pair's coefficient is the convolution of the two rows, width
W = 2n - 1.  The pairs are formed in blocks of about ``_PAIR_CHUNK`` and
summed in int64 in one of two ways, chosen from two sizes: the result's key
span (largest pair key - smallest + 1) and its number of term pairs.  When
the span is no wider than the pairs, every pair is added into a (W, span)
accumulator at its key's column, with no sort, and the accumulator is no
larger than the pairs.  A wider span (sparse forms, mostly at m >= 3, where
the B_1 ... B_m box is mostly keys of no monomial of degree d) has its
pairs sorted by key and the rows of equal keys summed, block by block, so
memory follows the terms present, never the span.  The sums are reduced
mod p and alpha^n .. alpha^(2n-2) are folded back with the modulus
(``FieldCtx._red``).  Sums, differences and integer multiples of tables
stay tables, so a polynomial in forms is expanded without a
:class:`Section` in between; the exponent of x_0 is restored from the
degree when a table becomes a Section again.

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

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import FeasibilityError
from .gf import Embedding, FieldCtx, FieldElem

_PAIR_CHUNK = 1 << 12  # term pairs formed per block


class InvalidPointError(ValueError):
    """Raised when evaluating at the all-zero tuple."""


def dim_space(m: int, d: int) -> int:
    """Number of degree-d monomials in m+1 variables: C(d+m, m)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    return comb(d + m, m)


@lru_cache(maxsize=None)
def monomials(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of degree d in m+1 variables, descending grlex."""
    def gen(nvars: int, total: int):
        if nvars == 1:
            yield (total,)
            return
        for e in range(total, -1, -1):
            for rest in gen(nvars - 1, total - e):
                yield (e,) + rest
    out = tuple(gen(m + 1, d))
    assert len(out) == dim_space(m, d)
    return out


@lru_cache(maxsize=None)
def monomial_array(m: int, d: int) -> np.ndarray:
    """``monomials(m, d)`` as a read-only (dim, m+1) int64 array."""
    arr = np.array(monomials(m, d), dtype=np.int64).reshape(-1, m + 1)
    arr.flags.writeable = False
    return arr


def _grlex_key(expo: tuple[int, ...]):
    return (sum(expo), expo)


class Section:
    """A homogeneous form of degree d in m+1 variables over a finite field."""

    __slots__ = ("m", "d", "field", "coeffs")

    def __init__(self, m: int, d: int, field: FieldCtx, coeffs=None):
        if m < 1:
            raise ValueError(f"need m >= 1, got {m}")
        if d < 0:
            raise ValueError(f"need d >= 0, got {d}")
        self.m = m
        self.d = d
        self.field = field
        clean: dict[tuple[int, ...], FieldElem] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(expo)
            if len(expo) != m + 1 or any(e < 0 for e in expo) or sum(expo) != d:
                raise ValueError(f"exponent tuple {expo} invalid for (m={m}, d={d})")
            if not (c.ctx is field or c.ctx == field):
                raise ValueError("coefficient from a different field context")
            if c:
                clean[expo] = c
        self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _trusted(cls, m: int, d: int, field: FieldCtx, coeffs: dict) -> "Section":
        """A section on a dict the caller guarantees valid for (m, d, field),
        with no zero coefficient: ring results skip the per-term checks."""
        s = object.__new__(cls)
        s.m, s.d, s.field, s.coeffs = m, d, field, coeffs
        return s

    @classmethod
    def zero(cls, m: int, d: int, field: FieldCtx) -> "Section":
        return cls(m, d, field, {})

    @classmethod
    def monomial(cls, m: int, expo: tuple[int, ...], coeff: FieldElem) -> "Section":
        return cls(m, sum(expo), coeff.ctx, {tuple(expo): coeff})

    # -- predicates -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return (
            self.m == other.m
            and self.d == other.d
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = sorted(self.coeffs, key=_grlex_key, reverse=True)[:4]
        body = " + ".join(f"{self.coeffs[e].coeffs}*x^{e}" for e in terms)
        more = "..." if len(self.coeffs) > 4 else ""
        return f"Section(m={self.m}, d={self.d}, {body}{more})"

    # -- arithmetic -------------------------------------------------------------

    def _check_ring(self, other: "Section"):
        if self.m != other.m or self.field != other.field:
            raise ValueError("sections live in different ambient rings")

    def __add__(self, other: "Section") -> "Section":
        if not isinstance(other, Section):
            return NotImplemented
        self._check_ring(other)
        if self.d != other.d and not (self.is_zero or other.is_zero):
            raise ValueError(f"cannot add degrees {self.d} and {other.d}")
        d = other.d if self.is_zero and self.d != other.d else self.d
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            _accumulate(out, expo, c)
        return Section._trusted(self.m, d, self.field, out)

    def __neg__(self) -> "Section":
        return Section._trusted(
            self.m, self.d, self.field, {e: -c for e, c in self.coeffs.items()}
        )

    def __sub__(self, other: "Section") -> "Section":
        if not isinstance(other, Section):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Section):
            self._check_ring(other)
            return _product(self, other)
        if isinstance(other, (FieldElem, int)):
            c0 = self.field.from_int(other) if isinstance(other, int) else other
            return Section._trusted(
                self.m, self.d, self.field,
                {e: c * c0 for e, c in self.coeffs.items()} if c0 else {},
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Section":
        if e < 0:
            raise ValueError("negative powers of sections are not defined")
        out = None  # square-and-multiply; None stands for the constant 1
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        if out is None:
            return Section(self.m, 0, self.field, {(0,) * (self.m + 1): self.field.one})
        return out

    # -- geometry ---------------------------------------------------------------

    def evaluate(self, pt: tuple[FieldElem, ...], emb: Embedding | None = None) -> FieldElem:
        """Value at a coordinate tuple over an extension (via emb) or over the
        base field itself (emb omitted).  Rejects the all-zero tuple."""
        if len(pt) != self.m + 1:
            raise ValueError(f"point needs {self.m + 1} coordinates")
        if not any(pt):
            raise InvalidPointError("all-zero tuple is not a projective point")
        target = emb.dst if emb is not None else self.field
        pows = [power_table(x, self.d) for x in pt]
        acc = target.zero
        for expo, c in self.coeffs.items():
            term = emb(c) if emb is not None else c
            for x_pows, e in zip(pows, expo):
                if e:
                    term = term * x_pows[e]
            acc = acc + term
        return acc

    def dehomogenize(self, chart: int) -> "AffinePoly":
        """Substitute x_chart = 1; variables are the remaining coordinates in
        index order."""
        if not 0 <= chart <= self.m:
            raise ValueError(f"chart index {chart} out of range")
        out: dict[tuple[int, ...], FieldElem] = {}
        for expo, c in self.coeffs.items():
            beta = expo[:chart] + expo[chart + 1:]
            # distinct homogeneous monomials of equal degree stay distinct
            out[beta] = c
        return AffinePoly(self.m, self.field, out)

    def leading_monomial(self) -> tuple[int, ...] | None:
        if not self.coeffs:
            return None
        return max(self.coeffs, key=_grlex_key)

    # -- serialization -----------------------------------------------------------

    def to_obj(self) -> list:
        """A list of [exponents, coefficient-int-vector] records, in descending
        monomial order."""
        return [
            [list(e), list(self.coeffs[e].coeffs)]
            for e in sorted(self.coeffs, key=_grlex_key, reverse=True)
        ]

    @classmethod
    def from_obj(cls, m: int, d: int, field: FieldCtx, obj: list) -> "Section":
        coeffs = {}
        for rec in obj:
            if len(rec) != 2:
                raise ValueError(f"malformed section record {rec!r}")
            expo, vec = rec
            coeffs[tuple(expo)] = field.elem(tuple(vec))
        return cls(m, d, field, coeffs)


def _term_rows(s: Section) -> np.ndarray:
    """One int64 row per term of s: exponents of x_1..x_m, then F_p coordinates."""
    return np.array([e[1:] + c.coeffs for e, c in s.coeffs.items()],
                    dtype=np.int64).reshape(-1, s.m + s.field.n)


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
    def of(cls, s: Section, layout: KeyLayout, rows: np.ndarray | None = None) -> "TermTable":
        """The table of s; ``rows`` is its :func:`_term_rows` when at hand."""
        if rows is None:
            rows = _term_rows(s)
        return cls(s.m, s.d, s.field, layout, rows[:, :s.m] @ layout.place, rows[:, s.m:])

    def _new(self, d: int, keys: np.ndarray, coords: np.ndarray) -> "TermTable":
        return TermTable(self.m, d, self.field, self.layout, keys, coords)

    def _check(self, other: "TermTable"):
        if self.m != other.m or self.field != other.field or self.layout is not other.layout:
            raise ValueError("term tables of different rings or key layouts")

    def __add__(self, other: "TermTable") -> "TermTable":
        if not isinstance(other, TermTable):
            return NotImplemented
        self._check(other)
        if not len(other.keys):
            return self
        if not len(self.keys):
            return other
        if self.d != other.d:
            raise ValueError(f"cannot add degrees {self.d} and {other.d}")
        k, v = _collect([(self.keys, self.coords), (other.keys, other.coords)])
        v %= self.field.p
        live = v.any(axis=1)
        return self._new(self.d, k[live], v[live])

    def __neg__(self) -> "TermTable":
        return self._new(self.d, self.keys, -self.coords % self.field.p)

    def __sub__(self, other: "TermTable") -> "TermTable":
        if not isinstance(other, TermTable):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            c = other % p
            if not c:
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
        lo = int(kf.min()) + int(kg.min())
        span = int(kf.max()) + int(kg.max()) - lo + 1
        if span <= len(kf) * len(kg):
            # one accumulator column per key of the span: no larger than the
            # pairs, and summing into it needs no sort
            acc = np.zeros((2 * n - 1, span), dtype=np.int64)
            for i in range(0, len(kf), step):
                at = (kf[i:i + step, None] - lo + kg).ravel()
                for a in range(n):  # coefficient polynomials in alpha multiply by convolution
                    for b in range(n):
                        np.add.at(acc[a + b], at, (cf[i:i + step, a, None] * cg[:, b]).ravel())
            k, v = np.arange(lo, lo + span, dtype=np.int64), acc.T
        else:
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
            k, v = _collect(held)
        v %= p
        coords = v[:, :n]
        if n > 1:  # alpha^(n+k) = _red[k]
            coords = (coords + v[:, n:] @ np.array(fld._red, dtype=np.int64)) % p
        live = coords.any(axis=1)
        return self._new(d, k[live], coords[live])

    __rmul__ = __mul__

    def section(self) -> Section:
        """The form as a :class:`Section`: exponents decoded from the keys,
        x_0's restored from the degree."""
        m, d, fld = self.m, self.d, self.field
        expo = self.keys[:, None] // self.layout.place % self.layout.base
        expo = np.concatenate([d - expo.sum(axis=1, keepdims=True), expo], axis=1)
        # columns to lists, then zip: no list object per term on the way to its tuple
        return Section._trusted(m, d, fld,
                                dict(zip(zip(*expo.T.tolist()), _elements(fld, self.coords))))


def _product(f: Section, g: Section) -> Section:
    """f * g: the product of their term tables, under bases one above the
    largest exponent of each variable in f plus that in g."""
    m, d, fld = f.m, f.d + g.d, f.field
    if f.is_zero or g.is_zero:
        return Section.zero(m, d, fld)
    rf, rg = _term_rows(f), _term_rows(g)
    layout = KeyLayout.of(rf[:, :m].max(axis=0) + rg[:, :m].max(axis=0) + 1, m, d)
    return (TermTable.of(f, layout, rf) * TermTable.of(g, layout, rg)).section()


def _elements(fld: FieldCtx, coords: np.ndarray):
    """The field elements of (N, n) F_p coordinate rows reduced mod p, in
    row order, as an iterator."""
    if fld._elems is not None:  # interned: p^n <= 4096, so indices fit
        return map(fld._elems.__getitem__, (coords @ fld.place).tolist())
    return (fld.elem(tuple(c)) for c in coords.tolist())


def _collect(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of the (keys, value rows) blocks, ascending, and the
    sum of the value rows at each."""
    keys, vals = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = first.nonzero()[0]
    return keys[first], np.add.reduceat(vals, first, axis=0)


def _accumulate(out: dict, expo: tuple[int, ...], c: FieldElem) -> None:
    """out[expo] += c in a sparse term dict, the term dropped when it sums to zero."""
    s = out.get(expo)
    t = c if s is None else s + c
    if t:
        out[expo] = t
    elif s is not None:
        del out[expo]


def power_table(x: FieldElem, top: int) -> list[FieldElem]:
    """[1, x, x^2, ..., x^top]."""
    pows = [x.ctx.one]
    for _ in range(top):
        pows.append(pows[-1] * x)
    return pows


class AffinePoly:
    """A polynomial in m affine coordinates t_1..t_m over a finite field."""

    __slots__ = ("m", "field", "coeffs")

    def __init__(self, m: int, field: FieldCtx, coeffs=None):
        self.m = m
        self.field = field
        clean: dict[tuple[int, ...], FieldElem] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(expo)
            if len(expo) != m or any(e < 0 for e in expo):
                raise ValueError(f"exponent tuple {expo} invalid for m={m}")
            if c:
                clean[expo] = c
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, AffinePoly):
            return NotImplemented
        return (
            self.m == other.m
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"AffinePoly(m={self.m}, {len(self.coeffs)} terms)"

    def __add__(self, other: "AffinePoly") -> "AffinePoly":
        if not isinstance(other, AffinePoly):
            return NotImplemented
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            _accumulate(out, expo, c)
        return AffinePoly(self.m, self.field, out)

    def __mul__(self, other):
        if isinstance(other, AffinePoly):
            out: dict[tuple[int, ...], FieldElem] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    _accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            return AffinePoly(self.m, self.field, out)
        if isinstance(other, (FieldElem, int)):
            c0 = self.field.from_int(other) if isinstance(other, int) else other
            return AffinePoly(
                self.m, self.field, {e: c * c0 for e, c in self.coeffs.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, j: int) -> "AffinePoly":
        """Formal partial derivative with respect to t_j, 1 <= j <= m."""
        if not 1 <= j <= self.m:
            raise ValueError(f"variable index {j} out of range 1..{self.m}")
        jj = j - 1
        out: dict[tuple[int, ...], FieldElem] = {}
        for expo, c in self.coeffs.items():
            e = expo[jj]
            if e:  # an exponent divisible by the characteristic adds zero
                _accumulate(out, expo[:jj] + (e - 1,) + expo[jj + 1:], c * e)
        return AffinePoly(self.m, self.field, out)

    def evaluate(self, pt: tuple[FieldElem, ...], emb: Embedding | None = None) -> FieldElem:
        if len(pt) != self.m:
            raise ValueError(f"point needs {self.m} coordinates")
        target = emb.dst if emb is not None else self.field
        top = max((max(e) for e in self.coeffs), default=0)
        pows = [power_table(x, top) for x in pt]
        acc = target.zero
        for expo, c in self.coeffs.items():
            term = emb(c) if emb is not None else c
            for x_pows, e in zip(pows, expo):
                if e:
                    term = term * x_pows[e]
            acc = acc + term
        return acc


def exact_divide(f: Section, g: Section) -> Section | None:
    """The quotient h with f = g * h, or None when g does not divide f.

    Single-divisor reduction in descending grlex order; the computed quotient
    is re-checked by multiplying back before it is returned.
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
    lead_g = g.leading_monomial()
    lead_c = g.coeffs[lead_g]
    rem = dict(f.coeffs)
    quot: dict[tuple[int, ...], FieldElem] = {}
    while rem:
        lead_r = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lead_r, lead_g))
        if any(e < 0 for e in diff):
            return None
        c = rem[lead_r] / lead_c
        quot[diff] = c
        for expo, gc in g.coeffs.items():
            _accumulate(rem, tuple(a + b for a, b in zip(diff, expo)), -(c * gc))
    h = Section(f.m, f.d - g.d, f.field, quot)
    if g * h != f:  # exactness is always re-verified
        return None
    return h


def random_section(m: int, d: int, field: FieldCtx, rng_seed: int) -> Section:
    """A uniform random degree-d form: every monomial coefficient uniform over
    the field, drawn from a PCG64 stream seeded with rng_seed."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return section_from_slots(m, d, field,
                              rng.integers(0, field.p, size=dim_space(m, d) * field.n))


def section_from_slots(m: int, d: int, field: FieldCtx, slots) -> Section:
    """Build a section from a flat vector of F_p coordinates: for monomial i
    (descending grlex), entries [i*n, (i+1)*n) are its coefficient vector.
    A vector of any other length than dim_space(m, d) * n is refused."""
    monos, n = monomials(m, d), field.n
    rows = np.asarray(slots, dtype=np.int64)
    if rows.shape != (len(monos) * n,):
        raise ValueError(f"a degree-{d} form on P^{m} over F_{field.p}^{n} takes "
                         f"{len(monos) * n} slots, got shape {rows.shape}")
    rows = rows.reshape(-1, n) % field.p
    live = rows.any(axis=1).nonzero()[0]
    return Section._trusted(m, d, field, dict(zip(map(monos.__getitem__, live.tolist()),
                                                  _elements(field, rows[live]))))


@lru_cache(maxsize=None)
def _monomial_index(m: int, d: int) -> dict[tuple[int, ...], int]:
    """The position of each exponent tuple in ``monomials(m, d)``."""
    return {e: i for i, e in enumerate(monomials(m, d))}


def section_slots(s: Section) -> np.ndarray:
    """The flat int64 F_p coordinate vector of a section, inverse to
    :func:`section_from_slots` (same layout)."""
    n, terms = s.field.n, len(s.coeffs)
    out = np.zeros((dim_space(s.m, s.d), n), dtype=np.int64)
    at = np.fromiter(map(_monomial_index(s.m, s.d).__getitem__, s.coeffs), np.int64, terms)
    out[at] = np.array([c.coeffs for c in s.coeffs.values()], dtype=np.int64).reshape(terms, n)
    return out.ravel()
