"""Homogeneous sections: monomial bases, ring operations, evaluation,
dehomogenization, formal partials and exact division."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elldens import sections
from elldens.errors import FeasibilityError
from elldens.gf import FieldElem, make_field
from elldens.sections import (KeyLayout, Section, TermTable, dim_space, exact_divide,
                              monomial_array, monomials, section_from_slots, section_slots)
from elldens.weier import random_weierstrass, weierstrass_from_slots
from support import InvalidPointError, dehomogenize, evaluate, monomial, random_section

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


def test_monomial_array_lists_the_monomials():
    for m, d in [(m, d) for m in range(1, 5) for d in range(25)] + [(2, 108)]:
        arr = monomial_array(m, d)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert np.array_equal(arr, np.array(monomials(m, d)).reshape(-1, m + 1)), (m, d)


@pytest.mark.parametrize("m,d", [(m, d) for m in range(1, 5) for d in range(13)] + [(2, 60)])
def test_monomial_array_is_every_exponent_tuple_descending(m, d):
    # an independent reference: the first m exponents from a product of
    # ranges, the last one what is left of d, sorted strictly descending
    ref = sorted((head + (d - sum(head),) for head in itertools.product(range(d + 1), repeat=m)
                  if sum(head) <= d), reverse=True)
    assert monomial_array(m, d).tolist() == [list(e) for e in ref]


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
        c = _random_sec(m, 3, F5, rng)
        assert (a * c).d == 5
    x = monomial(1, (1, 0), F5.one)
    assert (x ** 3).terms() == {(3, 0): F5.one}


def test_sections_have_no_sums_or_scalar_multiples():
    # sums, negatives and integer multiples of forms live on TermTable, and
    # powers start at 1
    x = monomial(1, (1, 0), F5.one)
    for op in (lambda: x + x, lambda: x - x, lambda: -x, lambda: 2 * x, lambda: x * F5.one):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        x ** 0


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
        assert evaluate(s, scaled) == lam ** 4 * evaluate(s, pt)


def test_evaluate_rejects_zero_point():
    s = monomial(1, (2, 0), F5.one)
    with pytest.raises(InvalidPointError):
        evaluate(s, (F5.zero, F5.zero))
    with pytest.raises(ValueError):
        evaluate(s, (F5.one,))  # wrong length


def test_dehomogenize_consistent_with_evaluate():
    rng = random.Random("sec-dehom")
    for _ in range(25):
        s = _random_sec(2, 3, F5, rng)
        aff = dehomogenize(s, 0)
        a, b = (F5.from_index(rng.randrange(5)) for _ in range(2))
        assert aff.evaluate((a, b)) == evaluate(s, (F5.one, a, b))
        aff2 = dehomogenize(s, 2)
        assert aff2.evaluate((a, b)) == evaluate(s, (a, b, F5.one))


def test_partial_matches_term_by_term_derivative():
    rng = random.Random("sec-euler")
    F7 = make_field(7, 1)
    for _ in range(20):
        s = _random_sec(1, 4, F7, rng)
        t = F7.from_index(rng.randrange(7))
        got = dehomogenize(s, 0).partial(1).evaluate((t,))
        want = F7.zero
        for e, c in s.terms().items():
            if e[1] == 0:
                continue
            want = want + F7.from_int(e[1]) * c * t ** (e[1] - 1)
        assert got == want


def test_partial_drops_char_divisible_exponents():
    # d/dx (x^2) = 0 in characteristic 2
    s = monomial(1, (0, 2), F2.one)
    aff = dehomogenize(s, 0)
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
        assert (qt * g).terms() == f.terms()
        # the dividend's terms taken once by the caller give the same
        # quotient and are left as they were
        t = f.terms()
        assert exact_divide(f, g, t) == qt
        exact_divide(f, g * g, t)  # whether it divides or not, t is only read
        assert t == f.terms()


def test_exact_divide_failure_and_edges():
    x = monomial(1, (1, 0), F5.one)
    x2_plus_y2 = Section(1, 2, F5, {(2, 0): F5.one, (0, 2): F5.one})
    assert exact_divide(x2_plus_y2, Section(1, 1, F5, {(1, 0): F5.one, (0, 1): F5.one})) is None
    z = Section.zero(1, 3, F5)
    q = exact_divide(z, x)
    assert q is not None and q.is_zero
    with pytest.raises(ValueError):
        exact_divide(x, Section.zero(1, 1, F5))


def test_power_of_linear_divides():
    u = Section(2, 1, F5, {(1, 0, 0): F5.one, (0, 1, 0): F5.from_int(2)})
    f = u ** 4
    assert exact_divide(f, u ** 2) is not None
    # u has no x_2 term, so neither has f, and f + x_2^4 is f with one more term
    assert exact_divide(Section(2, 4, F5, {**f.terms(), (0, 0, 4): F5.one}), u) is None


def test_random_section_deterministic():
    a = random_section(2, 3, F5, rng_seed=99)
    b = random_section(2, 3, F5, rng_seed=99)
    c = random_section(2, 3, F5, rng_seed=100)
    assert a.terms() == b.terms()
    assert a.terms() != c.terms()
    assert a.d == 3 and a.m == 2
    # the stream as drawn before random_section went through section_from_slots
    assert a.to_obj() == [
        [[3, 0, 0], [4]], [[2, 1, 0], [2]], [[2, 0, 1], [3]], [[1, 2, 0], [2]],
        [[1, 0, 2], [2]], [[0, 3, 0], [4]], [[0, 2, 1], [4]], [[0, 1, 2], [4]],
        [[0, 0, 3], [3]]]


def test_array_paths_build_no_field_element(monkeypatch):
    # F_{2^13} is past the interning limit, so every field element is built
    # on demand and any conversion of digit rows to elements is counted: the
    # draw, its decoding, the discriminant, the slot vector and a product
    # read the rows alone
    F = make_field(2, 13)
    built = []
    init = FieldElem.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(FieldElem, "__init__", counted)
    w = random_weierstrass(1, 2, F, seed=0)
    w.slots()
    assert not (w.a4 * w.a6).is_zero
    assert len(built) == 0


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
        assert tuple(slots[:field.n]) == s.terms().get(lead, field.zero).coeffs
    zero = Section.zero(2, 3, F9)
    assert not section_slots(zero).any()
    assert section_from_slots(2, 3, F9, section_slots(zero)) == zero
    # a vector of the wrong length is refused, not cut or padded
    F3 = make_field(3, 1)
    for slots in ([1, 2], [1, 2, 1, 1, 1], [], [[1, 2, 1]]):
        with pytest.raises(ValueError, match="slots"):
            section_from_slots(1, 2, F3, slots)
    w = random_weierstrass(1, 1, F5, seed=4)
    assert weierstrass_from_slots(1, 1, F5, w.slots()).sections() == w.sections()
    for cut in (w.slots()[:-1], np.append(w.slots(), 1)):
        with pytest.raises(ValueError, match="slots"):
            weierstrass_from_slots(1, 1, F5, cut)


def test_obj_roundtrip():
    rng = random.Random("sec-obj")
    F9 = make_field(3, 2)
    s = _random_sec(2, 2, F9, rng)
    obj = s.to_obj()
    back = Section.from_obj(2, 2, F9, obj)
    assert back.terms() == s.terms()
    # descending monomial order in the serialized form
    expos = [tuple(rec[0]) for rec in obj]
    assert expos == sorted(expos, key=lambda e: (sum(e), e), reverse=True)


def test_terms_past_the_int64_index_range():
    # F_{2^65}: an element's index p-adically from its digits passes 2^63,
    # so terms() must build each element from its digit row
    F = make_field(2, 65)
    rng = random.Random("sec-terms-big")
    top = (0,) * 64 + (1,)  # alpha^64, index 2^64
    rows = [top, (1,) * 65, (0,) * 63 + (1, 0)] + [
        tuple(rng.randrange(2) for _ in range(65)) for _ in range(3)]
    obj = [[list(e), list(c)] for e, c in zip(monomials(1, 5), rows) if any(c)]
    s = Section.from_obj(1, 5, F, obj)
    assert s.to_obj() == obj
    assert s.terms() == {tuple(e): F.elem(tuple(c)) for e, c in obj}
    assert s.terms()[(5, 0)].coeffs == top
    assert Section.from_obj(1, 5, F, s.to_obj()) == s


# -- products against the AffinePoly oracle -------------------------------------

PRODUCT_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1),
                  (257, 1)]


def _assert_product_matches_oracle(f, g):
    """f * g against AffinePoly products of the factors on every chart (the
    chart's dehomogenization is injective on forms of one degree)."""
    prod = f * g
    assert (prod.m, prod.d, prod.field) == (f.m, f.d + g.d, f.field)
    for chart in range(f.m + 1):
        assert dehomogenize(prod, chart) == dehomogenize(f, chart) * dehomogenize(g, chart)
    assert (g * f) == prod


@st.composite
def _form(draw, field, m, d=None):
    """A form of degree d (default: drawn from 0..12): dense (every monomial
    drawn, zero coefficients allowed) when it has at most 40 monomials, else
    up to 40 drawn terms."""
    d = draw(st.integers(0, 12)) if d is None else d
    monos = monomials(m, d)
    elem = st.integers(0, field.size - 1)
    if len(monos) <= 40 and draw(st.booleans()):
        coeffs = draw(st.lists(elem, min_size=len(monos), max_size=len(monos)))
        terms = list(enumerate(coeffs))
    else:
        terms = draw(st.lists(st.tuples(st.integers(0, len(monos) - 1), elem),
                              max_size=40))
    return Section(m, d, field, {monos[i]: field.from_index(c) for i, c in terms})


@st.composite
def _form_pair(draw):
    field = make_field(*draw(st.sampled_from(PRODUCT_FIELDS)))
    m = draw(st.integers(1, 3))
    return draw(_form(field, m)), draw(_form(field, m))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=_form_pair())
def test_product_matches_affine_oracle(pair):
    _assert_product_matches_oracle(*pair)


@pytest.mark.parametrize("p,n", PRODUCT_FIELDS)
def test_dense_products_match_affine_oracle(p, n):
    # every monomial present, top coefficient entries included: the largest
    # exponent of each variable and the alpha^(2n-2) coordinates all occur
    field = make_field(p, n)
    rng = random.Random(f"dense-{p}-{n}")
    top = field.from_index(field.size - 1)
    for m, d1, d2 in ((1, 7, 5), (2, 4, 3), (3, 2, 3)):
        f = _random_sec(m, d1, field, rng)
        g = _random_sec(m, d2, field, rng)
        _assert_product_matches_oracle(f, g)
        full = Section(m, d1, field, {e: top for e in monomials(m, d1)})
        _assert_product_matches_oracle(full, full)
        _assert_product_matches_oracle(full, g)
    zero = Section.zero(m, 3, field) * g
    assert zero.is_zero and zero.d == 3 + g.d


def test_product_exact_in_large_prime_extension():
    # p near 2^24 over F_{p^2}: the convolution entries stay below 2^63, but
    # folding alpha^2 back through the modulus needs them reduced mod p first
    field = make_field(16777213, 2)
    rng = random.Random("large-p")
    top = field.from_index(field.size - 1)
    f = Section(1, 5, field, {e: top for e in monomials(1, 5)})
    g = _random_sec(1, 4, field, rng)
    _assert_product_matches_oracle(f, g)
    _assert_product_matches_oracle(f, f)


def test_product_at_p_2_31_minus_1_exact_or_infeasible():
    field = make_field(2**31 - 1, 1)
    big = field.from_int(-1)
    x0 = monomial(2, (1, 0, 0), big)
    two = Section(2, 1, field, {(1, 0, 0): big, (0, 1, 0): big})
    three = Section(2, 1, field, {e: big for e in monomials(2, 1)})
    g = Section(2, 2, field, {e: big for e in monomials(2, 2)})
    # an entry sums min(N1, N2) products of at most (p-1)^2 ~ 2^62
    _assert_product_matches_oracle(x0, g)
    _assert_product_matches_oracle(two, two)  # 2 (p-1)^2 < 2^63
    with pytest.raises(FeasibilityError):  # 3 (p-1)^2 > 2^63: refused, not wrapped
        three * g


def _sparse(m, d, field, terms, seed):
    """A form with up to ``terms`` random monomials of degree d, nonzero
    coefficients."""
    rng = random.Random(seed)
    monos = monomials(m, d)
    return Section(m, d, field, {monos[rng.randrange(len(monos))]:
                                 field.from_index(rng.randrange(1, field.size))
                                 for _ in range(terms)})


def test_products_at_high_m_and_degree():
    # keys are sized by the exponents present, not by the degree-d monomials
    # of P^m: a k = 1 discriminant's degree on P^7 and sparse degree-516
    # products on P^8 are exact, and so is a sparse product over F_4 on P^3
    # (its key span is ~260 times its term pairs)
    _assert_product_matches_oracle(_sparse(3, 40, make_field(2, 2), 30, "wide-f"),
                                   _sparse(3, 40, make_field(2, 2), 30, "wide-g"))
    F2 = make_field(2, 1)
    rng = random.Random("high-m")
    monos = monomials(7, 6)
    f = Section(7, 6, F2, {monos[rng.randrange(len(monos))]: F2.one for _ in range(30)})
    g = Section(7, 6, F2, {monos[rng.randrange(len(monos))]: F2.one for _ in range(30)})
    _assert_product_matches_oracle(f, g)
    x1 = monomial(8, (0, 258) + (0,) * 7, F2.one)
    x2 = monomial(8, (0, 0, 258) + (0,) * 6, F2.one)
    assert (x1 * x2).terms() == {(0, 258, 258) + (0,) * 6: F2.one}
    assert (x1 * x1).terms() == {(0, 516) + (0,) * 7: F2.one}


def _tables(f, g):
    """The term tables of f and g under the layout of their product, and
    the product's key span."""
    m = f.m
    layout = KeyLayout.of([max(e[j] for e in f.terms()) + max(e[j] for e in g.terms()) + 1
                           for j in range(1, m + 1)], m, f.d + g.d)
    tf, tg = TermTable.of(f, layout), TermTable.of(g, layout)
    span = int(tf.keys.max() + tg.keys.max() - tf.keys.min() - tg.keys.min()) + 1
    return tf, tg, span


# -- term tables against the AffinePoly oracle ------------------------------------

TABLE_FIELDS = [(2, 1), (2, 2), (3, 2), (257, 1)]  # q = 2, 4, 9, 257


def _assert_table_is(t, expected: list, d):
    """t holds distinct keys and reduced, nonzero coordinate rows, has degree
    d, and its section dehomogenizes to the expected AffinePoly per chart."""
    p = t.field.p
    assert len(set(t.keys.tolist())) == len(t.keys) == len(t.coords)
    assert ((t.coords >= 0) & (t.coords < p)).all() and t.coords.any(axis=1).all()
    s = t.section()
    assert s.d == d
    assert [dehomogenize(s, c) for c in range(t.m + 1)] == expected


@st.composite
def _table_case(draw):
    field = make_field(*draw(st.sampled_from(TABLE_FIELDS)))
    m = draw(st.integers(1, 3))
    f, g = draw(_form(field, m)), draw(_form(field, m))
    kind = draw(st.sampled_from(("form", "zero", "neg")))
    h = {"form": lambda: draw(_form(field, m, f.d)),
         "zero": lambda: Section.zero(m, f.d, field),
         "neg": lambda: Section(m, f.d, field, {e: -c for e, c in f.terms().items()})}[kind]()
    c = draw(st.sampled_from((0, 1, -1, field.p, -field.p, 3 * field.p + 2)))
    return f, g, h, c


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_table_case())
def test_term_table_ring_operations_match_affine_oracle(case):
    f, g, h, c = case
    m = f.m
    # bases above every exponent the results reach: degree f.d + g.d
    layout = KeyLayout.of((f.d + g.d + 1,) * m, m, f.d + g.d)
    tf, tg, th = (TermTable.of(s, layout) for s in (f, g, h))
    charts = range(m + 1)
    df, dg, dh = ([dehomogenize(s, i) for i in charts] for s in (f, g, h))
    _assert_table_is(tf, df, f.d)
    _assert_table_is(tf * tg, [a * b for a, b in zip(df, dg)], f.d + g.d)
    _assert_table_is(tf + th, [a + b for a, b in zip(df, dh)], f.d)
    _assert_table_is(tf - th, [a + b * -1 for a, b in zip(df, dh)], f.d)
    _assert_table_is(-tf, [a * -1 for a in df], f.d)
    _assert_table_is(c * tf, [a * c for a in df], f.d)
    _assert_table_is(tf * c, [a * c for a in df], f.d)
    # full cancellation leaves the empty table of the same degree
    zero = tf - tf
    assert len(zero.keys) == 0 and zero.section() == Section.zero(m, f.d, f.field)
    assert (zero * tg).section() == Section.zero(m, f.d + g.d, f.field)


def test_term_tables_of_different_layouts_do_not_mix():
    f = _random_sec(2, 2, F5, random.Random("layouts"))
    a = TermTable.of(f, KeyLayout.of((5, 5), 2, 4))
    b = TermTable.of(f, KeyLayout.of((5, 5), 2, 4))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def _spread(m, d, tops):
    """x_0^d plus x_0^(d-t) x_j^t for each j = 1..m with t = tops[j-1]."""
    F2 = make_field(2, 1)
    terms = [(d,) + (0,) * m]
    for j, t in enumerate(tops, start=1):
        terms.append(tuple(d - t if i == 0 else t * (i == j) for i in range(m + 1)))
    return Section(m, d, F2, {e: F2.one for e in terms})


def test_product_keys_at_the_int64_edge():
    # the exponent bases of x_1..x_8 are 256 (x7) and 128: the largest key is
    # 2^63 - 1, still exact; one more in the last base is refused, not wrapped
    f = _spread(8, 128, [128] * 7 + [64])
    _assert_product_matches_oracle(f, _spread(8, 127, [127] * 7 + [63]))
    with pytest.raises(FeasibilityError, match="int64"):
        f * _spread(8, 127, [127] * 7 + [64])


def test_power_square_and_multiply():
    rng = random.Random("sec-pow")
    F9 = make_field(3, 2)
    u = _random_sec(2, 1, F9, rng)
    acc = u
    for e in range(1, 8):
        assert u ** e == acc
        acc = acc * u


def test_narrow_key_span_products_never_sort(monkeypatch):
    # dense forms: the product's key span is no wider than its term pairs,
    # so every pair is summed into its key's column and the sort is unused
    cases = []
    for p, n in ((2, 1), (2, 2), (257, 1)):
        field = make_field(p, n)
        top = field.from_index(field.size - 1)
        for m, d1, d2 in ((1, 7, 5), (2, 4, 3), (2, 9, 18)):
            cases.append(tuple(Section(m, d, field, {e: top for e in monomials(m, d)})
                               for d in (d1, d2)))
    for f, g in cases:
        tf, tg, span = _tables(f, g)
        assert span <= len(tf.keys) * len(tg.keys)

    def refuse(blocks):
        raise AssertionError("a narrow key span reached the sort")
    monkeypatch.setattr(sections, "_collect", refuse)
    for f, g in cases:
        _assert_product_matches_oracle(f, g)


def test_wide_key_span_products_allocate_by_pairs():
    # sparse forms on P^3 over F_4: 900 term pairs over a key span of
    # ~230,000; the product sorts its pairs and never allocates an
    # accumulator row per key of the span (8 bytes each, 3 rows)
    F4 = make_field(2, 2)
    f, g = _sparse(3, 40, F4, 30, "wide-f"), _sparse(3, 40, F4, 30, "wide-g")
    tf, tg, span = _tables(f, g)
    assert span > 100 * len(tf.keys) * len(tg.keys)
    tracemalloc.start()
    try:
        prod = tf * tg
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < span * 8 // 4
    assert prod.section() == f * g


def _assert_table_invariant(t):
    """Keys strictly ascending, one row of F_p coordinates per key, reduced
    mod p, and no row all zero."""
    assert t.keys.dtype == t.coords.dtype == np.int64
    assert t.coords.shape == (len(t.keys), t.field.n)
    assert (np.diff(t.keys) > 0).all()
    assert ((t.coords >= 0) & (t.coords < t.field.p)).all() and t.coords.any(axis=1).all()


@pytest.mark.parametrize("chunk", [None, 4])
@pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 2), (3, 2)])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_term_table_results_keep_keys_ascending_and_rows_reduced(p, n, chunk, data):
    # the invariant after `of` and every operation, empty tables included;
    # with _PAIR_CHUNK at 4 products whose key span passes their pairs take
    # the sort path, merging blocks as they go, and give the same table
    field = make_field(p, n)
    m = data.draw(st.integers(1, 3))
    f, g = data.draw(_form(field, m)), data.draw(_form(field, m))
    h = data.draw(st.sampled_from([Section.zero(m, f.d, field), f]) | _form(field, m, f.d))
    c = data.draw(st.integers(-2 * p, 2 * p))
    layout = KeyLayout.of((f.d + g.d + 1,) * m, m, f.d + g.d)
    tf, tg, th = (TermTable.of(s, layout) for s in (f, g, h))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(sections, "_PAIR_CHUNK", chunk)
        results = [tf, tg, th, tf + th, tf - th, th - tf, -tf, c * tf, tf * c,
                   tf * tg, tg * tf, th * tg, tf * tf]
    for t in results:
        _assert_table_invariant(t)
    assert (tf * tg).section() == f * g
    if chunk is not None:
        for got, want in zip(results[-4:], (tf * tg, tg * tf, th * tg, tf * tf)):
            assert np.array_equal(got.keys, want.keys)
            assert np.array_equal(got.coords, want.coords)


def test_discriminant_on_tables_makes_13_products(monkeypatch):
    products = []
    mul = TermTable.__mul__

    def counted(self, other):
        if isinstance(other, TermTable):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(TermTable, "__mul__", counted)
    for p, seed in ((2, 0), (3, 1), (5, 2)):
        products.clear()
        w = random_weierstrass(2, 1, make_field(p, 1), seed=seed)
        assert len(products) == 13
        _assert_table_invariant(TermTable.of(w.delta, KeyLayout.of((13, 13), 2, 12)))
