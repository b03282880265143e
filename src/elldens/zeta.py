"""Point counts and truncated inverse zeta products for P^m over F_q.

Point counting is exact integer / rational arithmetic: N_r = #P^m(F_{q^r}),
Moebius inversion recovers the closed-point counts a_e, and the truncated
inverse zeta value is the finite Euler product over points of degree <= r,
returned as a Fraction.  Exactness has a hard size wall — the reduced
denominator grows like q^(s * sum e a_e) — so large truncations are served
by a separate, explicitly float-valued routine instead of silently mixing
the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FeasibilityError
from .gf import prime_factors, prime_power

MAX_TRUNCATION = 32


def _mobius(n: int) -> int:
    mu = 1
    for _, e in prime_factors(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def point_counts(m: int, q: int, R: int) -> list[int]:
    """[N_1, ..., N_R] with N_r = sum_{i=0}^m q^{r i} = #P^m(F_{q^r})."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    prime_power(q)  # rejects q that is not a prime power
    if not 1 <= R <= MAX_TRUNCATION:
        raise ValueError(f"truncation must lie in 1..{MAX_TRUNCATION}, got {R}")
    return [sum(q ** (r * i) for i in range(m + 1)) for r in range(1, R + 1)]


def closed_point_counts(N: list[int]) -> list[int]:
    """Moebius inversion: a_e = (1/e) * sum_{d | e} mu(d) N_{e/d}.

    Raises ValueError when the input is inconsistent (non-integral or
    negative a_e).
    """
    a = []
    for e in range(1, len(N) + 1):
        tot = sum(_mobius(d) * N[e // d - 1] for d in _divisors(e))
        if tot % e != 0:
            raise ValueError(f"inconsistent point counts: a_{e} is not integral")
        ae = tot // e
        if ae < 0:
            raise ValueError(f"inconsistent point counts: a_{e} < 0")
        a.append(ae)
    return a


@dataclass(frozen=True)
class ZetaTable:
    """Exact N_r and a_e tables for P^m over F_q up to truncation R."""

    m: int
    q: int
    R: int
    N: tuple[int, ...]
    a: tuple[int, ...]


def zeta_table(m: int, q: int, R: int) -> ZetaTable:
    N = point_counts(m, q, R)
    a = closed_point_counts(N)
    # re-derive N_r from the a_e as a structural self-check
    for r in range(1, R + 1):
        back = sum(e * a[e - 1] for e in _divisors(r))
        if back != N[r - 1]:
            raise AssertionError(f"Moebius inversion self-check failed at r={r}")
    return ZetaTable(m=m, q=q, R=R, N=tuple(N), a=tuple(a))


MAX_EXACT_PRODUCT_BITS = 1 << 26  # the reduced fraction may use this much


def _check_exact_bits(bits: int) -> None:
    if bits > MAX_EXACT_PRODUCT_BITS:
        raise FeasibilityError(
            f"exact product needs ~{bits} bits (> {MAX_EXACT_PRODUCT_BITS})")


def _check_truncation_args(table: ZetaTable, s: int, r: int) -> None:
    if s <= table.m:
        raise ValueError(
            f"s={s} is in the divergent region for m={table.m}; need s >= {table.m + 1}"
        )
    if not 0 <= r <= table.R:
        raise ValueError(f"truncation r={r} outside table range 0..{table.R}")


def zeta_inverse_truncated(table: ZetaTable, s: int, r: int) -> Fraction:
    """prod_{e <= r} (1 - q^{-s e})^{a_e} as an exact Fraction.

    Requires s >= m+1; smaller s lies in the divergent region of the full
    product and is rejected.  The reduced denominator is q to the power
    s * sum(e * a_e), so the exact form blows up combinatorially in r;
    requests beyond MAX_EXACT_PRODUCT_BITS raise FeasibilityError
    (zeta_inverse_truncated_float covers that regime).
    """
    _check_truncation_args(table, s, r)
    _check_exact_bits(s * sum(e * table.a[e - 1] for e in range(1, r + 1)) * table.q.bit_length())
    out = Fraction(1)
    for e in range(1, r + 1):
        out *= (1 - Fraction(1, table.q ** (s * e))) ** table.a[e - 1]
    return out


def zeta_inverse_truncated_float(table: ZetaTable, s: int, r: int) -> float:
    """Float64 value of the truncated product, via exact log-space summation.

    Agrees with float(zeta_inverse_truncated(...)) to machine precision where
    the exact form is feasible, and extends to truncations where it is not.
    """
    _check_truncation_args(table, s, r)
    logs = [table.a[e - 1] * math.log1p(-table.q ** (-float(s * e)))
            for e in range(1, r + 1)]
    return math.exp(math.fsum(logs))


def zeta_inverse_exact_Pm(m: int, q: int, s: int) -> Fraction:
    """The exact inverse zeta value of P^m at integer s: prod_i (1 - q^{i-s}).

    Its denominator divides q^{s(m+1)}; past MAX_EXACT_PRODUCT_BITS bits
    FeasibilityError is raised, as by :func:`zeta_inverse_truncated`.
    """
    if s <= m:
        raise ValueError(f"s={s} is in the divergent region for m={m}; need s >= {m + 1}")
    _check_exact_bits(s * (m + 1) * q.bit_length())
    out = Fraction(1)
    for i in range(m + 1):
        out *= 1 - Fraction(q ** i, q ** s)
    return out
