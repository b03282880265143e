"""Exact arithmetic in finite fields F_{p^n} and embeddings between them.

Each field is F_p[x]/(modulus) with elements stored as coefficient tuples of
length n over F_p (least-significant first).  An extension F_{q^e} of
q = p^r is realised as F_{p^{r*e}}; the inclusion F_q -> F_{q^e} is an
:class:`Embedding` computed once by root-finding and cached.

Moduli are found by a seeded deterministic random search, so a given (p, n)
always yields the same field and serialized artifacts reproduce bit-for-bit.
Every integer factorization is one :func:`prime_factors` generator, every
power by square-and-multiply one :func:`power` loop, and every element
index (coefficients as base-p digits, least significant first) is a
product with one array, ``FieldCtx.place``.  Every product modulo a monic
f is one convolution folded by f's rows x^n .. x^(2n-2) mod f, and every
gcd over a field one Euclid, :func:`poly_gcd`.
Every field builds, on first use of :meth:`FieldCtx.log_tables`, NumPy
discrete-log, antilog and digit tables for array arithmetic (see
:class:`LogTables`).  Small fields (size <= 256) build them at once and
derive full operation tables from them by gathers, which keeps the
exhaustive enumeration loops elsewhere in the package cheap; the operation
tables are ``array("H")``, since scalar lookups in them are faster than in
NumPy arrays.

:class:`FieldArray` holds many elements of one field as an int64 array of
element indices and applies the field operations element-wise: by gathers
from the operation tables up to 256 elements, and above that by log/antilog
gathers for products and quotients and base-p digit sums for sums.
"""
from __future__ import annotations

import operator
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TABLE_LIMIT = 256  # fields up to this many elements get full op tables
_INTERN_LIMIT = 4096  # fields up to this many elements intern all elements


class FieldMismatchError(ValueError):
    """Raised when combining elements of two different field contexts."""


def prime_factors(n: int):
    """The (prime, exponent) pairs of n >= 1, primes ascending, by trial
    division up to the square root of what is left.  Each pair is yielded
    as soon as it is found, so a caller that needs only the first prime
    stops there."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1
    if n > 1:
        yield n, 1


# Miller-Rabin to the first 13 prime bases decides primality of every n below
# psi_13, the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases ``_MR_BASES``.
    FeasibilityError when n passes every base at or above ``_MR_EXACT_BELOW``,
    where passing them proves nothing."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        # imported here: a rare path, and gf otherwise imports no package module
        from .errors import FeasibilityError
        raise FeasibilityError(
            f"cannot decide whether {n} is prime: Miller-Rabin to the first "
            f"{len(_MR_BASES)} prime bases is exact only below {_MR_EXACT_BELOW}")
    return True


def _iroot(n: int, r: int) -> int:
    """floor(n ** (1/r)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // r)  # above the root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int]:
    """Decompose a prime power q as (p, r) with q = p**r; reject other q."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if is_prime(q):
        return q, 1
    for r in range(2, q.bit_length()):
        p = _iroot(q, r)
        if p ** r == q and is_prime(p):
            return p, r
    raise ValueError(f"q={q} is not a prime power")


# ---------------------------------------------------------------------------
# univariate polynomials, least-significant first: F_p coefficient tuples of
# length n modulo a monic f of degree n, and FieldElem lists, trimmed (no
# trailing zeros), for gcds over a field.

def _fold_rows(f: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """x^(n+k) mod f for k = 0..n-2 as length-n tuples: each row is the one
    before shifted up, its top coefficient times f taken off."""
    row, rows = tuple(-c % p for c in f[:-1]), []  # x^n = x^n - f
    for _ in range(len(f) - 2):
        rows.append(row)
        top = row[-1]
        row = tuple((a - top * c) % p for a, c in zip((0,) + row[:-1], f))
    return tuple(rows)


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], rows, p: int) -> tuple[int, ...]:
    """a * b mod f, given f's :func:`_fold_rows`: the coefficient of
    x^(n+k) in the convolution comes back as that multiple of rows[k]."""
    n = len(a)
    conv = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                conv[j] += ai * bj
    out = conv[:n]
    for c, row in zip(conv[n:], rows):
        if c % p:
            for i, r in enumerate(row):
                out[i] += c * r
    return tuple(c % p for c in out)


def poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def poly_gcd(a: list, b: list) -> list:
    """The monic gcd of a and b by Euclid (a itself when b is zero): b made
    monic, then a reduced by it from the top coefficient down."""
    while b:
        inv = b[-1].inverse()
        b, r = [c * inv for c in b], list(a)
        while len(r) >= len(b):
            if lead := r[-1]:
                for t, bt in enumerate(b, len(r) - len(b)):
                    r[t] -= lead * bt
            r.pop()
        a, b = b, poly_trim(r)
    return a


def power(x, e: int, mul=operator.mul):
    """x^e for e >= 1 under the associative product ``mul``: the one
    square-and-multiply loop, for field elements, forms and polynomials mod
    f.  No identity is multiplied; callers answer e = 0."""
    if e < 1:
        raise ValueError(f"need e >= 1, got {e}")
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p, by Rabin's test.

    f of degree n is irreducible iff x^(p^n) == x mod f and, for every
    prime l | n, gcd(x^(p^(n/l)) - x, f) = 1, the gcd taken over
    ``make_field(p, 1)``, whose modulus x is linear and so irreducible
    without a test.
    """
    n = len(modulus) - 1
    if n < 1 or modulus[-1] != 1:
        return False
    if n == 1:
        return True
    rows = _fold_rows(modulus, p)
    x = t = (0, 1) + (0,) * (n - 2)
    stops = {n // ell for ell, _ in prime_factors(n)}
    held = []  # x^(p^(n/l)) mod f for the primes l | n
    for e in range(1, n + 1):  # t = x^(p^e) mod f
        t = power(t, p, lambda a, b: _mulmod(a, b, rows, p))
        if e in stops:
            held.append(t)
    if t != x:
        return False
    Fp = make_field(p, 1)
    f = [Fp.from_int(c) for c in modulus]
    for t in held:
        diff = [Fp.from_int(c) for c in t]
        diff[1] -= 1
        if len(poly_gcd(f, poly_trim(diff))) > 1:
            return False
    return True


def _find_modulus(p: int, n: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree n over F_p."""
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")
    if n == 1:
        return (0, 1)  # x
    rng = random.Random(f"elldens-modulus:{p}:{n}")
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs


# ---------------------------------------------------------------------------


class FieldElem:
    """An element of a :class:`FieldCtx`, stored as a coefficient tuple."""

    __slots__ = ("ctx", "coeffs", "idx")

    def __init__(self, ctx: "FieldCtx", coeffs: tuple[int, ...], idx: int):
        self.ctx = ctx
        self.coeffs = coeffs
        self.idx = idx

    # -- helpers ------------------------------------------------------------

    def _same(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other
            raise FieldMismatchError(
                f"cannot combine elements of F_{self.ctx.p}^{self.ctx.n} "
                f"and F_{other.ctx.p}^{other.ctx.n} (distinct contexts)"
            )
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        if ctx._addt is not None:
            return ctx._elems[ctx._addt[self.idx * ctx.size + o.idx]]
        p = ctx.p
        return ctx.elem(tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        if ctx._negt is not None:
            return ctx._elems[ctx._negt[self.idx]]
        p = ctx.p
        return ctx.elem(tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        if ctx._mult is not None:
            return ctx._elems[ctx._mult[self.idx * ctx.size + o.idx]]
        return ctx.elem(_mulmod(self.coeffs, o.coeffs, ctx._red, ctx.p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        ctx = self.ctx
        if self.idx == 0 and not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero in finite field")
        if ctx._invt is not None:
            return ctx._elems[ctx._invt[self.idx]]
        return self ** (ctx.size - 2)

    def __truediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e) if e else self.ctx.one

    # -- comparisons & misc ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.coeffs == other.coeffs and (
                self.ctx is other.ctx or self.ctx == other.ctx
            )
        if isinstance(other, int):
            return self == self.ctx.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.ctx.p, self.ctx.n))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"FieldElem({self.coeffs}, F_{self.ctx.p}^{self.ctx.n})"


class FieldCtx:
    """The field F_{p^n} = F_p[x]/(modulus), with interned elements."""

    __slots__ = (
        "p", "n", "modulus", "size", "place",
        "_elems", "_addt", "_mult", "_invt", "_negt", "_red", "_logt", "_kern",
        "zero", "one", "gen",
    )

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got n={n}")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.modulus = modulus
        self.size = p ** n
        self.place = p ** np.arange(n, dtype=np.int64)  # digit rows @ place: indices
        self.place.flags.writeable = False
        self._elems = None
        self._addt = self._mult = self._invt = self._negt = None
        self._logt = self._kern = None
        if self.size <= _INTERN_LIMIT:
            self._elems = [
                FieldElem(self, self._decode(i), i) for i in range(self.size)
            ]
        self._red = _fold_rows(modulus, p)  # FieldElem's and TermTable's fold
        self.zero = self.elem((0,) * n)
        self.one = self.from_int(1)
        self.gen = self.elem((0, 1) + (0,) * (n - 2) if n > 1 else (-modulus[0],))
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    # -- representation helpers ---------------------------------------------

    def _decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return tuple(out)

    def _encode(self, coeffs: tuple[int, ...]) -> int:
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def _build_tables(self):
        t = self.log_tables()
        order = self.size - 1
        digits = t.digits.astype(np.int64)
        addt = (digits[:, None] + digits) % self.p @ self.place
        negt = -digits % self.p @ self.place
        mult = t.antilog[(t.log[:, None] + t.log) % order]
        mult[0] = mult[:, 0] = 0
        invt = t.antilog[-t.log % order]
        invt[0] = 0

        def table(a: np.ndarray) -> array:
            return array("H", a.astype(np.uint16).tobytes())

        self._negt, self._addt = table(negt), table(addt)
        self._mult, self._invt = table(mult), table(invt)

    # -- element constructors -------------------------------------------------

    def elem(self, coeffs: tuple[int, ...]) -> FieldElem:
        if len(coeffs) != self.n:
            raise ValueError(
                f"need {self.n} coefficients for F_{self.p}^{self.n}, got {len(coeffs)}"
            )
        coeffs = tuple(c % self.p for c in coeffs)
        idx = self._encode(coeffs)
        if self._elems is not None:
            return self._elems[idx]
        return FieldElem(self, coeffs, idx)

    def from_int(self, c: int) -> FieldElem:
        return self.elem((c % self.p,) + (0,) * (self.n - 1))

    def from_index(self, idx: int) -> FieldElem:
        if not 0 <= idx < self.size:
            raise ValueError(f"element index {idx} out of range for size {self.size}")
        if self._elems is not None:
            return self._elems[idx]
        return FieldElem(self, self._decode(idx), idx)

    def elements(self):
        """All elements, in index order (coefficient-little-endian counting)."""
        for i in range(self.size):
            yield self.from_index(i)

    def log_tables(self) -> "LogTables":
        """The field's NumPy log/antilog/digit tables, built on first use."""
        if self._logt is None:
            self._logt = LogTables.build(self)
        return self._logt

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldCtx):
            return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"


@dataclass(frozen=True)
class LogTables:
    """Discrete-log arithmetic tables of a field F_Q, Q = p^n, over element
    indices (coefficient-little-endian counting, as ``FieldElem.idx``).

    ``antilog[t]`` is the index of g^t for 0 <= t < Q-1, where g is the
    element of order Q-1 with the smallest index;
    ``log`` inverts it on nonzero indices, and ``log[0] = 0`` is a
    placeholder that callers must mask.  ``digits[i]`` is the coefficient
    vector of index i, with dtype ``np.min_scalar_type(p - 1)``, and
    ``columns`` its C-contiguous transpose: a gather from ``columns[c]``
    reads coefficient c without copying a strided column of ``digits``.
    """

    log: np.ndarray       # (Q,) int64
    antilog: np.ndarray   # (Q-1,) int64
    digits: np.ndarray    # (Q, n)
    columns: np.ndarray   # (n, Q)

    @classmethod
    def build(cls, fld: "FieldCtx") -> "LogTables":
        p, n, order = fld.p, fld.n, fld.size - 1
        # powers of g as F_p digit rows, doubling the known range [0, L) by
        # one multiplication with g^L per step, written in place
        pows = np.empty((order, n), dtype=np.min_scalar_type(p - 1))
        pows[0] = fld.one.coeffs
        step = fld.from_index(_primitive_index(fld))
        known = 1
        while known < order:
            times = _times_matrix(step)
            grow = min(known, order - known)
            for sl in _slabs(grow):
                pows[known + sl.start:known + sl.stop] = pows[sl] @ times % p
            known += grow
            step = step * step
        antilog = np.empty(order, dtype=np.int64)
        for sl in _slabs(order):
            antilog[sl] = pows[sl] @ fld.place
        log = np.zeros(fld.size, dtype=np.int64)
        log[antilog] = np.arange(order)
        digits = np.zeros((fld.size, n), dtype=pows.dtype)
        digits[antilog] = pows
        columns = np.ascontiguousarray(digits.T)
        for arr in (log, antilog, digits, columns):
            arr.flags.writeable = False
        return cls(log=log, antilog=antilog, digits=digits, columns=columns)


def _slabs(rows: int):
    """Slices of [0, rows) of 2^14 rows each: a product on one slab at a
    time bounds the int64 temporaries of a table over a large field."""
    for a in range(0, rows, 1 << 14):
        yield slice(a, min(a + (1 << 14), rows))


def _primitive_index(fld: FieldCtx) -> int:
    """Smallest element index whose multiplicative order is size - 1."""
    order = fld.size - 1
    factors = [ell for ell, _ in prime_factors(order)]
    for i in range(1, fld.size):
        a = fld.from_index(i)
        if all(a ** (order // ell) != fld.one for ell in factors):
            return i
    raise AssertionError("finite field without a primitive element")


def _times_matrix(c: FieldElem) -> np.ndarray:
    """(n, n) matrix over F_p whose row i is the coefficient vector of
    x^i * c, so that coefficient rows times it are those elements times c."""
    fld = c.ctx
    rows = []
    for _ in range(fld.n):
        rows.append(c.coeffs)
        c = c * fld.gen
    return np.array(rows, dtype=np.int64)


class FieldArray:
    """Elements of one field as an int64 array of element indices (as
    ``FieldElem.idx``), with ``+ - * /``, ``**`` and negation applied
    element-wise under NumPy broadcasting.

    The other operand may be a FieldArray or a FieldElem of the same field,
    or an int (coerced as for FieldElem).  Division by an array holding a
    zero raises ZeroDivisionError; ``is_zero`` is the mask of zero elements.
    Fields up to 256 elements gather from their operation tables; larger
    ones multiply and divide on discrete logs and add digit-wise.  Powers
    always go through the log tables.
    """

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx, idx):
        self.ctx = ctx
        self.idx = np.asarray(idx, dtype=np.int64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.idx.shape

    @property
    def is_zero(self) -> np.ndarray:
        return self.idx == 0

    def __getitem__(self, key):
        """Sub-array, or a FieldElem when the key selects one element."""
        sub = self.idx[key]
        if sub.ndim == 0:
            return self.ctx.from_index(int(sub))
        return FieldArray(self.ctx, sub)

    def _operand(self, other):
        if isinstance(other, (FieldArray, FieldElem)):
            if other.ctx is self.ctx or other.ctx == self.ctx:
                return other.idx
            raise FieldMismatchError(
                f"cannot combine elements of F_{self.ctx.p}^{self.ctx.n} "
                f"and F_{other.ctx.p}^{other.ctx.n} (distinct contexts)"
            )
        if isinstance(other, int):
            return self.ctx.from_int(other).idx
        return None

    def _new(self, idx: np.ndarray) -> "FieldArray":
        out = FieldArray.__new__(FieldArray)  # idx is int64 already
        out.ctx, out.idx = self.ctx, idx
        return out

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._new(_kernel(self.ctx).add(self.idx, b))

    __radd__ = __add__

    def __neg__(self):
        return self._new(_kernel(self.ctx).neg(self.idx))

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        k = _kernel(self.ctx)
        return self._new(k.add(self.idx, k.neg(b)))

    def __rsub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        k = _kernel(self.ctx)
        return self._new(k.add(b, k.neg(self.idx)))

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self._new(_kernel(self.ctx).mul(self.idx, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        k = _kernel(self.ctx)
        return self._new(k.mul(self.idx, k.inv(_nonzero(b))))

    def __rtruediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        k = _kernel(self.ctx)
        return self._new(k.mul(b, k.inv(_nonzero(self.idx))))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        t = self.ctx.log_tables()
        zero = self.is_zero
        if e < 0:
            _nonzero(self.idx)
        out = t.antilog[t.log[self.idx] * e % (self.ctx.size - 1)]
        if e > 0:  # 0 ** 0 is one, as for FieldElem
            out = np.where(zero, 0, out)
        return self._new(out)

    def __bool__(self):
        raise TypeError("the truth value of a FieldArray is ambiguous; use is_zero")

    def __repr__(self):
        return f"FieldArray({self.idx.tolist()}, F_{self.ctx.p}^{self.ctx.n})"


def _nonzero(idx):
    if np.any(np.asarray(idx) == 0):
        raise ZeroDivisionError("inverse of zero in finite field")
    return idx


class _TableKernel:
    """Index-array arithmetic of a field of at most _TABLE_LIMIT elements, by
    gathers from its operation tables."""

    def __init__(self, fld: FieldCtx):
        def table(t):
            return np.frombuffer(t, dtype=np.uint16).astype(np.int64)

        self.size = fld.size
        self._add, self._mul = table(fld._addt), table(fld._mult)
        self._neg, self._inv = table(fld._negt), table(fld._invt)

    def add(self, a, b):
        return self._add[a * self.size + b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a * self.size + b]

    def inv(self, a):
        return self._inv[a]


class _LogKernel:
    """Index-array arithmetic of a larger field: products and inverses on
    discrete logs, sums and negatives on base-p digits."""

    def __init__(self, fld: FieldCtx):
        t = fld.log_tables()
        self.p, self.order = fld.p, fld.size - 1
        self.log, self.antilog = t.log, t.antilog
        self.digits = t.digits  # np.min_scalar_type(p - 1): sums widen per call
        self.place = fld.place

    def add(self, a, b):
        return np.add(self.digits[a], self.digits[b], dtype=np.int64) % self.p @ self.place

    def neg(self, a):
        return np.negative(self.digits[a], dtype=np.int64) % self.p @ self.place

    def mul(self, a, b):
        prod = self.antilog[(self.log[a] + self.log[b]) % self.order]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inv(self, a):
        return self.antilog[-self.log[a] % self.order]


def _kernel(fld: FieldCtx):
    """The field's index-array kernel, chosen by field size, built once."""
    if fld._kern is None:
        fld._kern = (_TableKernel if fld.size <= _TABLE_LIMIT else _LogKernel)(fld)
    return fld._kern


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldCtx:
    """The field F_{p^n} with its deterministic seeded-search modulus."""
    return FieldCtx(p, n, _find_modulus(p, n))


class Embedding:
    """A ring embedding F_{p^n1} -> F_{p^n2} determined by a root of the
    source modulus in the target, ``gen_image``: the generator's image,
    whose discrete log places the base-field basis in the jet kernels."""

    __slots__ = ("src", "dst", "gen_image")

    def __init__(self, src: FieldCtx, dst: FieldCtx, gen_image: FieldElem):
        if src.p != dst.p:
            raise ValueError("embedding requires equal characteristic")
        if dst.n % src.n != 0:
            raise ValueError(
                f"no embedding: degree {src.n} does not divide {dst.n}"
            )
        # verify the chosen image really is a root of the source modulus
        acc = dst.zero
        for c in reversed(src.modulus):
            acc = acc * gen_image + dst.from_int(c)
        if acc:
            raise ValueError("gen_image is not a root of the source modulus")
        self.src = src
        self.dst = dst
        self.gen_image = gen_image

    def __repr__(self):
        return (
            f"Embedding(F_{self.src.p}^{self.src.n} -> "
            f"F_{self.dst.p}^{self.dst.n}, x -> {self.gen_image.coeffs})"
        )


def coefficient_key(fld: FieldCtx) -> np.ndarray:
    """Per element index, an int64 key that orders the elements by
    coefficient sequence, the coefficient of x^0 most significant: the order
    in which ``FieldElem.coeffs`` tuples compare."""
    digits = fld.log_tables().digits
    place = fld.p ** np.arange(fld.n - 1, -1, -1, dtype=np.int64)
    key = np.empty(fld.size, dtype=np.int64)
    for sl in _slabs(fld.size):
        key[sl] = digits[sl] @ place
    return key


@lru_cache(maxsize=None)
def embedding(src: FieldCtx, dst: FieldCtx) -> Embedding:
    """The canonical embedding src -> dst: the root of the source modulus in
    dst with the smallest :func:`coefficient_key`, found by one Horner pass
    over every element of dst, slab by slab."""
    if dst.n % src.n != 0:
        raise ValueError(f"no embedding: degree {src.n} does not divide {dst.n}")
    roots = []
    for sl in _slabs(dst.size):
        x = FieldArray(dst, np.arange(sl.start, sl.stop))
        acc = FieldArray(dst, np.zeros(sl.stop - sl.start, dtype=np.int64))
        for c in reversed(src.modulus):
            acc = acc * x + c
        roots.append(sl.start + np.flatnonzero(acc.is_zero))
    roots = np.concatenate(roots)
    if not roots.size:  # cannot happen for valid degrees; guard anyway
        raise ValueError("source modulus has no root in the target field")
    best = roots[np.argmin(coefficient_key(dst)[roots])]
    return Embedding(src, dst, dst.from_index(int(best)))
