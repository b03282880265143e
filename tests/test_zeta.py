"""Point counts, closed-point counts via Moebius inversion, and inverse
zeta values for projective space."""
import time
from fractions import Fraction

import pytest

from elldens.errors import FeasibilityError
from elldens.zeta import (MAX_EXACT_PRODUCT_BITS, MAX_TRUNCATION, exact_Pm_exponent,
                          point_counts, projective_points, truncated_exponent,
                          zeta_inverse_exact_Pm, zeta_inverse_truncated,
                          zeta_inverse_truncated_float, zeta_table)


def test_point_counts_projective_line_and_plane():
    assert point_counts(1, 2, 4) == [3, 5, 9, 17]
    assert point_counts(2, 2, 3) == [7, 21, 73]
    assert point_counts(1, 5, 2) == [6, 26]
    assert point_counts(2, 3, 2) == [13, 91]


def test_point_count_closed_form_is_the_geometric_sum():
    for m in range(1, 6):
        for Q in (2, 3, 4, 5, 8, 9, 49, 65536):
            assert projective_points(m, Q) == sum(Q ** i for i in range(m + 1))
    # a sum of m + 1 big powers took 13.7 s here
    t0 = time.perf_counter()
    assert point_counts(100_000, 2, 1) == [2 ** 100_001 - 1]
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("m,q,R,s", [(1, 2, 4, 2), (2, 2, 3, 3), (1, 3, 3, 4), (2, 4, 2, 3),
                                     (3, 5, 2, 5)])
def test_exact_products_have_denominator_q_to_the_exponent(m, q, R, s):
    t = zeta_table(m, q, R)
    for r in range(R + 1):
        assert zeta_inverse_truncated(t, s, r).denominator == q ** truncated_exponent(t, s, r)
    assert zeta_inverse_exact_Pm(m, q, s).denominator == q ** exact_Pm_exponent(m, s)


@pytest.mark.parametrize("m,q,R", [(20000, 2, 1), (5, 65536, 32)])
def test_exact_budget_message_names_the_budget(m, q, R):
    # the denominators' bit counts are too long to print; the message names
    # the budget alone
    t = zeta_table(m, q, R)
    for call in (lambda: zeta_inverse_truncated(t, m + 1, R),
                 lambda: zeta_inverse_exact_Pm(m, q, 10 ** 9)):
        with pytest.raises(FeasibilityError) as exc:
            call()
        assert str(exc.value) == f"exact product needs more than {MAX_EXACT_PRODUCT_BITS} bits"


def test_closed_point_counts_known_values():
    t = zeta_table(1, 2, 4)
    assert t.a == (3, 1, 2, 3)
    t = zeta_table(2, 2, 3)
    assert t.a == (7, 7, 22)
    t = zeta_table(1, 3, 3)
    assert t.a == (4, 3, 8)


def test_moebius_identity_holds_to_r16():
    t = zeta_table(2, 2, 16)
    for r in range(1, 17):
        divs = [e for e in range(1, r + 1) if r % e == 0]
        assert sum(e * t.a[e - 1] for e in divs) == t.N[r - 1]


def test_truncation_bounds():
    with pytest.raises(ValueError):
        zeta_table(1, 2, 0)
    with pytest.raises(ValueError):
        zeta_table(1, 2, MAX_TRUNCATION + 1)


def test_divergent_exponent_rejected():
    t = zeta_table(2, 2, 2)
    with pytest.raises(ValueError):
        zeta_inverse_truncated(t, 2, 2)
    t1 = zeta_table(1, 2, 2)
    with pytest.raises(ValueError):
        zeta_inverse_truncated(t1, 1, 1)


def test_truncated_inverse_small_cases():
    t = zeta_table(2, 2, 3)
    assert zeta_inverse_truncated(t, 3, 1) == Fraction(7, 8) ** 7
    expect_r2 = Fraction(7, 8) ** 7 * Fraction(63, 64) ** 7
    assert zeta_inverse_truncated(t, 3, 2) == expect_r2
    # r = 0 gives the empty product
    assert zeta_inverse_truncated(t, 3, 0) == 1
    with pytest.raises(ValueError):
        zeta_inverse_truncated(t, 3, 4)  # beyond the table


def test_exact_inverse_values():
    assert zeta_inverse_exact_Pm(2, 2, 3) == Fraction(21, 64)
    assert zeta_inverse_exact_Pm(1, 2, 2) == Fraction(3, 8)
    assert zeta_inverse_exact_Pm(1, 5, 2) == Fraction(4, 5) * Fraction(24, 25)
    with pytest.raises(ValueError):
        zeta_inverse_exact_Pm(2, 2, 2)


def test_truncated_converges_to_exact():
    # the truncated product tends to the closed form as the cutoff grows
    exact = zeta_inverse_exact_Pm(2, 2, 3)
    t = zeta_table(2, 2, 16)
    prev = None
    for r in (1, 4, 8, 16):
        val = zeta_inverse_truncated_float(t, 3, r)
        assert val > float(exact)
        if prev is not None:
            assert val < prev  # monotone decreasing toward the limit
        prev = val
    assert prev - float(exact) < 1e-4


def test_float_route_matches_exact_route_where_both_run():
    t = zeta_table(2, 2, 8)
    for r in (1, 3, 6, 8):
        ex = float(zeta_inverse_truncated(t, 3, r))
        fl = zeta_inverse_truncated_float(t, 3, r)
        assert abs(ex - fl) < 1e-12
    t5 = zeta_table(1, 5, 4)
    assert abs(float(zeta_inverse_truncated(t5, 2, 4))
               - zeta_inverse_truncated_float(t5, 2, 4)) < 1e-12


def test_exact_route_refuses_gigantic_products():
    t = zeta_table(2, 2, 16)
    with pytest.raises(FeasibilityError):
        zeta_inverse_truncated(t, 3, 16)


def test_exact_inverse_refuses_gigantic_products():
    # a 2 * 10^8-bit denominator passes MAX_EXACT_PRODUCT_BITS = 2^26 and is
    # refused before any arithmetic; 4 * 20000 bits are computed exactly
    t0 = time.perf_counter()
    with pytest.raises(FeasibilityError):
        zeta_inverse_exact_Pm(1, 2, 100_000_000)
    assert time.perf_counter() - t0 < 2
    assert zeta_inverse_exact_Pm(1, 2, 20_000).denominator == 2 ** 39_999


def test_negative_or_fractional_orbit_count_rejected():
    # N values that cannot come from Frobenius orbits must be refused
    from elldens.zeta import closed_point_counts
    with pytest.raises(ValueError):
        closed_point_counts([3, 4])  # (4 - 3)/2 is not an integer
    with pytest.raises(ValueError):
        closed_point_counts([5, 1])  # negative degree-2 orbit count
