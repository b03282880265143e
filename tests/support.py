"""Reference code the tests check the package against, and that no command
runs: scalar evaluation of forms and of their affine charts with formal
partials, embeddings applied one element at a time, the Frobenius map,
seeded random forms, the exhaustive fiber scan of one lane's jets, and
small constructors and measures of package objects.  The package computes
the same things in batches (jet products, FieldArray arithmetic, the fiber
scan of a whole batch), so these stay independent of it.
"""
from __future__ import annotations

import numpy as np

from elldens.gf import Embedding, FieldCtx, FieldElem, FieldMismatchError, prime_power
from elldens.sections import Section, dim_space, section_from_slots
from elldens.weier import WeierstrassJets, infinity_partial, jacobian_vanishes


def _accumulate(out: dict, expo: tuple[int, ...], c: FieldElem) -> None:
    """out[expo] += c in a sparse term dict, the term dropped when it sums to zero."""
    s = out.get(expo)
    t = c if s is None else s + c
    if t:
        out[expo] = t
    elif s is not None:
        del out[expo]


class InvalidPointError(ValueError):
    """Raised when evaluating at the all-zero tuple."""


def power_table(x, top: int) -> list:
    """[1, x, x^2, ..., x^top] for a field element x."""
    pows = [x.ctx.one]
    for _ in range(top):
        pows.append(pows[-1] * x)
    return pows


def frobenius(a: FieldElem, q: int) -> FieldElem:
    """The power map a -> a^q; q must be a power of the characteristic."""
    p = a.ctx.p
    if prime_power(q)[0] != p:
        raise ValueError(f"q={q} is not a power of the characteristic {p}")
    return a ** q


def mulmod(a: tuple[int, ...], b: tuple[int, ...], f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b mod the monic f over F_p, coefficient tuples least significant
    first: the schoolbook product, then long division by f from the top
    coefficient down; len(f) - 1 coefficients."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) + [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for top in range(len(prod) - 1, n - 1, -1):
        lead = prod[top] % p
        for i, fi in enumerate(f):
            prod[top - n + i] -= lead * fi
    return tuple(c % p for c in prod[:n])


def embed(emb: Embedding, a: FieldElem) -> FieldElem:
    """The image of one element under an embedding, coefficientwise: the
    source basis 1, x, ..., x^(n-1) maps to the powers of ``gen_image``."""
    if not (a.ctx is emb.src or a.ctx == emb.src):
        raise FieldMismatchError("element does not belong to the source field")
    acc = emb.dst.zero
    for c, w in zip(a.coeffs, power_table(emb.gen_image, emb.src.n - 1)):
        if c:
            acc = acc + emb.dst.from_int(c) * w
    return acc


def monomial(m: int, expo: tuple[int, ...], coeff: FieldElem) -> Section:
    """The form coeff * x^expo."""
    return Section(m, sum(expo), coeff.ctx, {tuple(expo): coeff})


def random_section(m: int, d: int, field: FieldCtx, rng_seed: int) -> Section:
    """A uniform random degree-d form: every monomial coefficient uniform over
    the field, drawn from a PCG64 stream seeded with rng_seed."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return section_from_slots(m, d, field,
                              rng.integers(0, field.p, size=dim_space(m, d) * field.n))


def evaluate(s: Section, pt: tuple[FieldElem, ...], emb: Embedding | None = None) -> FieldElem:
    """Value of a form at a coordinate tuple over an extension (via emb) or
    over the base field itself (emb omitted).  Rejects the all-zero tuple."""
    if len(pt) != s.m + 1:
        raise ValueError(f"point needs {s.m + 1} coordinates")
    if not any(pt):
        raise InvalidPointError("all-zero tuple is not a projective point")
    return _evaluate(s.terms(), pt, s.d, s.field, emb)


def dehomogenize(s: Section, chart: int) -> "AffinePoly":
    """Substitute x_chart = 1; variables are the remaining coordinates in
    index order."""
    if not 0 <= chart <= s.m:
        raise ValueError(f"chart index {chart} out of range")
    out: dict[tuple[int, ...], FieldElem] = {}
    for expo, c in s.terms().items():
        beta = expo[:chart] + expo[chart + 1:]
        # distinct homogeneous monomials of equal degree stay distinct
        out[beta] = c
    return AffinePoly(s.m, s.field, out)


def _evaluate(coeffs: dict, pt, top: int, field: FieldCtx, emb: Embedding | None) -> FieldElem:
    """The sum of c * pt^expo over the terms, c mapped by emb when given and
    pt's coordinates raised to exponents of at most top: the one evaluation
    of forms and of :class:`AffinePoly`."""
    pows = [power_table(x, top) for x in pt]
    acc = (emb.dst if emb is not None else field).zero
    for expo, c in coeffs.items():
        term = embed(emb, c) if emb is not None else c
        for x_pows, e in zip(pows, expo):
            if e:
                term = term * x_pows[e]
        acc = acc + term
    return acc


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
        return _evaluate(self.coeffs, pt, max((max(e) for e in self.coeffs), default=0),
                         self.field, emb)


def fiber_scan(J: WeierstrassJets) -> tuple[FieldElem, FieldElem] | None:
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


def vanishes(jet) -> bool:
    """Whether a single-point :class:`~elldens.weier.Jet` is zero: its value
    and every gradient entry."""
    return not jet.value and not any(jet.gradient)


def stored_nbytes(kernel) -> int:
    """Bytes a :class:`~elldens.base.JetKernel` holds, its F_p digit blocks."""
    return sum(b.nbytes for b in kernel.blocks)
