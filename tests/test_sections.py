"""Homogeneous sections: monomial bases, ring operations, evaluation,
dehomogenization, formal partials and exact division."""
import random

import pytest

from elldens.gf import make_field
from elldens.sections import (InvalidPointError, Section, dim_space,
                              exact_divide, monomials, random_section,
                              section_from_slots, section_slots)

F5 = make_field(5, 1)
F2 = make_field(2, 1)


def _random_sec(m, d, field, rng):
    coeffs = {e: field.from_index(rng.randrange(field.size)) for e in monomials(m, d)}
    return Section(m, d, field, coeffs)


def test_dim_space_matches_monomial_count():
    for m in (1, 2, 3):
        for d in range(0, 7):
            assert dim_space(m, d) == len(monomials(m, d))
    assert dim_space(2, 18) == 190


def test_monomials_descending_grlex_and_degree():
    for m in (1, 2):
        for d in (1, 3, 5):
            ms = monomials(m, d)
            assert all(sum(e) == d for e in ms)
            assert all(len(e) == m + 1 for e in ms)
            assert list(ms) == sorted(ms, reverse=True)
    assert monomials(1, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_constructor_validates():
    with pytest.raises(ValueError):
        Section(1, 2, F5, {(1, 0): F5.one})  # degree mismatch
    with pytest.raises(ValueError):
        Section(1, 2, F5, {(1, 1, 0): F5.one})  # wrong arity
    # zero coefficients are dropped
    s = Section(1, 2, F5, {(2, 0): F5.zero})
    assert s.is_zero


def test_ring_identities_random():
    rng = random.Random("sec-ring")
    for _ in range(40):
        m = rng.choice((1, 2))
        a = _random_sec(m, 2, F5, rng)
        b = _random_sec(m, 2, F5, rng)
        c = _random_sec(m, 3, F5, rng)
        assert (a + b).coeffs == (b + a).coeffs
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
        assert (a - a).is_zero
        assert (a * c).d == 5
    x = Section.monomial(1, (1, 0), F5.one)
    assert (x ** 3).coeffs == {(3, 0): F5.one}


def test_scalar_and_int_multiplication():
    rng = random.Random("sec-scalar")
    a = _random_sec(2, 2, F5, rng)
    assert (a * 2).coeffs == (a + a).coeffs
    assert (a * F5.from_int(0)).is_zero
    assert (3 * a).coeffs == (a + a + a).coeffs


def test_evaluate_homogeneity():
    # f(lambda * P) == lambda^d f(P)
    rng = random.Random("sec-hom")
    for _ in range(30):
        s = _random_sec(2, 4, F5, rng)
        pt = tuple(F5.from_index(rng.randrange(5)) for _ in range(3))
        if all(c == F5.zero for c in pt):
            continue
        lam = F5.from_index(rng.randrange(1, 5))
        scaled = tuple(lam * c for c in pt)
        assert s.evaluate(scaled) == lam ** 4 * s.evaluate(pt)


def test_evaluate_rejects_zero_point():
    s = Section.monomial(1, (2, 0), F5.one)
    with pytest.raises(InvalidPointError):
        s.evaluate((F5.zero, F5.zero))
    with pytest.raises(ValueError):
        s.evaluate((F5.one,))  # wrong length


def test_dehomogenize_consistent_with_evaluate():
    rng = random.Random("sec-dehom")
    for _ in range(25):
        s = _random_sec(2, 3, F5, rng)
        aff = s.dehomogenize(0)
        a, b = (F5.from_index(rng.randrange(5)) for _ in range(2))
        assert aff.evaluate((a, b)) == s.evaluate((F5.one, a, b))
        aff2 = s.dehomogenize(2)
        assert aff2.evaluate((a, b)) == s.evaluate((a, b, F5.one))


def test_partial_matches_term_by_term_derivative():
    rng = random.Random("sec-euler")
    F7 = make_field(7, 1)
    for _ in range(20):
        s = _random_sec(1, 4, F7, rng)
        t = F7.from_index(rng.randrange(7))
        got = s.dehomogenize(0).partial(1).evaluate((t,))
        want = F7.zero
        for e, c in s.coeffs.items():
            if e[1] == 0:
                continue
            want = want + F7.from_int(e[1]) * c * t ** (e[1] - 1)
        assert got == want


def test_partial_drops_char_divisible_exponents():
    # d/dx (x^2) = 0 in characteristic 2
    s = Section.monomial(1, (0, 2), F2.one)
    aff = s.dehomogenize(0)
    assert aff.partial(1).evaluate((F2.one,)) == F2.zero


def test_exact_divide_roundtrip():
    rng = random.Random("sec-div")
    for _ in range(30):
        m = rng.choice((1, 2))
        g = _random_sec(m, 2, F5, rng)
        h = _random_sec(m, 3, F5, rng)
        if g.is_zero or h.is_zero:
            continue
        f = g * h
        qt = exact_divide(f, g)
        assert qt is not None
        assert (qt * g).coeffs == f.coeffs


def test_exact_divide_failure_and_edges():
    x = Section.monomial(1, (1, 0), F5.one)
    y = Section.monomial(1, (0, 1), F5.one)
    assert exact_divide(x * x + y * y, x + y) is None
    z = Section.zero(1, 3, F5)
    q = exact_divide(z, x)
    assert q is not None and q.is_zero
    with pytest.raises(ValueError):
        exact_divide(x, Section.zero(1, 1, F5))


def test_power_of_linear_divides():
    u = Section.monomial(2, (1, 0, 0), F5.one) + Section.monomial(2, (0, 1, 0), F5.from_int(2))
    f = u ** 4
    assert exact_divide(f, u ** 2) is not None
    assert exact_divide(f + Section.monomial(2, (0, 0, 4), F5.one), u) is None


def test_random_section_deterministic():
    a = random_section(2, 3, F5, rng_seed=99)
    b = random_section(2, 3, F5, rng_seed=99)
    c = random_section(2, 3, F5, rng_seed=100)
    assert a.coeffs == b.coeffs
    assert a.coeffs != c.coeffs
    assert a.d == 3 and a.m == 2
    # the stream as drawn before random_section went through section_from_slots
    assert a.to_obj() == [
        [[3, 0, 0], [4]], [[2, 1, 0], [2]], [[2, 0, 1], [3]], [[1, 2, 0], [2]],
        [[1, 0, 2], [2]], [[0, 3, 0], [4]], [[0, 2, 1], [4]], [[0, 1, 2], [4]],
        [[0, 0, 3], [3]]]


def test_section_slots_roundtrip():
    rng = random.Random("sec-slots")
    F9 = make_field(3, 2)
    for m, d, field in [(1, 4, F9), (2, 3, F9), (2, 5, F5), (1, 0, F9)]:
        s = _random_sec(m, d, field, rng)
        slots = section_slots(s)
        assert slots.shape == (dim_space(m, d) * field.n,)
        assert section_from_slots(m, d, field, slots) == s
        # coefficient vectors in descending grlex order, F_p digits innermost
        lead = monomials(m, d)[0]
        assert tuple(slots[:field.n]) == s.coeffs.get(lead, field.zero).coeffs
    zero = Section.zero(2, 3, F9)
    assert not section_slots(zero).any()
    assert section_from_slots(2, 3, F9, section_slots(zero)) == zero


def test_obj_roundtrip():
    rng = random.Random("sec-obj")
    F9 = make_field(3, 2)
    s = _random_sec(2, 2, F9, rng)
    obj = s.to_obj()
    back = Section.from_obj(2, 2, F9, obj)
    assert back.coeffs == s.coeffs
    # descending monomial order in the serialized form
    expos = [tuple(rec[0]) for rec in obj]
    assert expos == sorted(expos, key=lambda e: (sum(e), e), reverse=True)
