"""Coefficient-form tuples, discriminants, singular fiber detection and
minimality."""
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elldens import weier
from elldens.base import FeasibilityError, Jet, closed_points_up_to
from elldens.density import sample_seed
from elldens.gf import embedding, make_field, prime_power
from elldens.sections import Section, dim_space, random_section
from elldens.weier import (WeierstrassData, WeierstrassJets,
                           discriminant_value, dump_weier, in_Mk,
                           infinity_partial, is_minimal, jacobian_vanishes,
                           jets_at, jets_from_indices, load_weier,
                           minimality_degree_bound, minimality_witness,
                           random_weierstrass,
                           section_degrees, singular_jets_closed_form,
                           singular_jets_oracle, singular_over_closed_form,
                           singular_over_oracle, smooth_up_to, total_slots,
                           varying_indices, weier_from_obj, weier_to_obj,
                           weierstrass_from_slots, weierstrass_slot_rows,
                           weierstrass_slots)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def _monomial_datum(field, m, k, a_vals):
    """Coefficient data with a_i = c_i * x0^(i*k) for the given constants."""
    secs = {}
    for i in (1, 2, 3, 4, 6):
        c = a_vals.get(i, 0)
        d = i * k
        if c % field.p == 0:
            secs[i] = Section.zero(m, d, field)
        else:
            expo = (d,) + (0,) * m
            secs[i] = Section.monomial(m, expo, field.from_int(c))
    return WeierstrassData(m=m, k=k, field=field,
                           a1=secs[1], a2=secs[2], a3=secs[3],
                           a4=secs[4], a6=secs[6])


def test_varying_indices_by_characteristic():
    assert varying_indices(2) == (1, 3, 4, 6)
    assert varying_indices(3) == (2, 4, 6)
    assert varying_indices(5) == (4, 6)
    assert varying_indices(7) == (4, 6)
    assert section_degrees(3, 2) == (4, 8, 12)


def test_shape_enforced():
    k = 1
    x4 = Section.monomial(1, (4, 0), F5.one)
    with pytest.raises(ValueError):
        # a_2 must vanish for p > 3
        WeierstrassData(m=1, k=k, field=F5,
                        a1=Section.zero(1, 1, F5),
                        a2=Section.monomial(1, (2, 0), F5.one),
                        a3=Section.zero(1, 3, F5),
                        a4=x4, a6=Section.zero(1, 6, F5))
    with pytest.raises(ValueError):
        # degree of a_4 must be 4k
        WeierstrassData(m=1, k=2, field=F5,
                        a1=Section.zero(1, 2, F5),
                        a2=Section.zero(1, 4, F5),
                        a3=Section.zero(1, 6, F5),
                        a4=x4, a6=Section.zero(1, 12, F5))


def test_discriminant_short_form_p_gt_3():
    rng = random.Random("disc")
    for _ in range(10):
        w = random_weierstrass(1, 1, F5, seed=rng.randrange(10**6))
        # -16(4 a4^3 + 27 a6^2) for the two-coefficient shape
        expect = (w.a4 * w.a4 * w.a4 * (-64) + w.a6 * w.a6 * (-432))
        assert w.delta.coeffs == expect.coeffs
        if not w.delta.is_zero:
            assert w.delta.d == 12


def test_discriminant_degree_all_characteristics():
    for F, k in ((F2, 2), (F3, 1), (F5, 3)):
        w = random_weierstrass(1, k, F, seed=4)
        if not w.delta.is_zero:
            assert w.delta.d == 12 * k


@pytest.mark.parametrize("q", (2, 3, 5, 4, 9))
def test_discriminant_form_evaluates_to_the_values_formula(q):
    # the term-table expansion against discriminant_value on FieldElem
    # values, at random points over the base field and over F_{q^3}
    F = make_field(*prime_power(q))
    ext = make_field(F.p, 3 * F.n)
    emb = embedding(F, ext)
    rng = random.Random(f"disc-eval-{q}")
    for m, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for seed in range(3):
            w = random_weierstrass(m, k, F, seed)
            delta = weier.discriminant(w)
            assert delta.is_zero or delta.d == 12 * k
            for fld, e in ((F, None), (ext, emb)):
                for _ in range(4):
                    pt = tuple(fld.from_index(rng.randrange(fld.size)) for _ in range(m + 1))
                    if not any(pt):
                        continue
                    vals = [s.evaluate(pt, e) for s in (w.a1, w.a2, w.a3, w.a4, w.a6)]
                    assert delta.evaluate(pt, e) == discriminant_value(*vals)


def test_jets_at_values():
    w = _monomial_datum(F5, 1, 1, {4: 3, 6: 1})
    for P in closed_points_up_to(1, 5, 2):
        J = jets_at(w, P)
        x0 = P.coords[0]
        want4 = P.emb(F5.from_int(3)) * x0 ** 4
        assert J.a4.value == want4
        assert J.a1.value == P.field.zero


def test_infinity_section_never_singular():
    # the Z-partial at (0 : 1 : 0) is identically 1, whatever the jets are
    rng = random.Random("inf")
    for F in (F2, F3, F5):
        for _ in range(20):
            w = random_weierstrass(1, 1, F, seed=rng.randrange(10**6))
            for P in closed_points_up_to(1, F.size, 1):
                J = jets_at(w, P)
                assert infinity_partial(J) == P.field.one


@pytest.mark.parametrize("F,m,r,seeds", [
    (F2, 1, 2, 30), (F3, 1, 2, 30), (F5, 1, 2, 20),
    (F2, 2, 1, 12), (F3, 2, 1, 8), (F5, 2, 1, 8),
])
def test_closed_form_matches_oracle(F, m, r, seeds):
    pts = closed_points_up_to(m, F.size, r)
    for seed in range(seeds):
        w = random_weierstrass(m, 1, F, seed=7000 + seed)
        for P in pts:
            a = singular_over_closed_form(w, P)
            b = singular_over_oracle(w, P)
            assert (a is None) == (b is None)


def test_closed_form_matches_oracle_extension_field():
    F4 = make_field(2, 2)
    F9 = make_field(3, 2)
    for F in (F4, F9):
        pts = closed_points_up_to(1, F.size, 1)
        for seed in range(8):
            w = random_weierstrass(1, 1, F, seed=seed)
            for P in pts:
                a = singular_over_closed_form(w, P)
                b = singular_over_oracle(w, P)
                assert (a is None) == (b is None)


def test_witnesses_satisfy_jacobian():
    # any witness returned must make F and all partials vanish; the
    # SingularityWitness constructor re-checks, so it just needs to build
    hits = 0
    for seed in range(40):
        w = random_weierstrass(1, 1, F3, seed=seed)
        for P in closed_points_up_to(1, 3, 2):
            wit = singular_over_closed_form(w, P)
            if wit is not None:
                hits += 1
                assert wit.point is P or wit.point == P
    assert hits > 0  # the sweep is not vacuous


def test_node_datum():
    w = _monomial_datum(F7, 1, 1, {4: -3, 6: 2})
    assert w.delta.is_zero
    assert not in_Mk(w)
    for P in closed_points_up_to(1, 7, 2):
        wit = singular_over_closed_form(w, P)
        assert wit is not None
        if P.chart == 0:
            assert wit.x == P.field.one and wit.y == P.field.zero


def test_cusp_datum():
    w = _monomial_datum(F5, 1, 1, {})  # y^2 = x^3
    assert w.delta.is_zero
    for P in closed_points_up_to(1, 5, 2):
        wit = singular_over_closed_form(w, P)
        assert wit is not None
        assert wit.x == P.field.zero and wit.y == P.field.zero
    assert smooth_up_to(w, 2) is False


def test_singular_witnesses_one_jet_product_and_detector_call_per_degree(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(weier, "jet_at", counted("jet_at", weier.jet_at))
    monkeypatch.setattr(weier, "singular_jets_closed_form",
                        counted("detector", weier.singular_jets_closed_form))
    w = random_weierstrass(2, 1, make_field(2, 2), seed=10)
    hits = list(weier.singular_witnesses(w, 2))
    assert calls == ["jet_at", "detector"] * 2
    assert {h.point.degree for h in hits} == {1, 2}
    for h in hits:
        assert jacobian_vanishes(h.jets, h.x, h.y)
        assert h.jets == jets_at(w, h.point)


def test_smooth_up_to_frozen_seeds():
    # seeds checked once against the exhaustive oracle and pinned
    for seed in (0, 1, 2, 3):
        w = random_weierstrass(1, 1, F5, seed=seed)
        assert smooth_up_to(w, 2)
    w = random_weierstrass(1, 1, F5, seed=13)
    assert not smooth_up_to(w, 1)


def test_minimality():
    non_min = _monomial_datum(F5, 1, 1, {6: 1})  # a6 = x0^6
    wit = minimality_witness(non_min, 1)
    assert wit is not None and wit.d == 1
    assert not is_minimal(non_min, 1)

    # all-zero data is divisible by anything: vacuously non-minimal
    zero = _monomial_datum(F5, 1, 1, {})
    assert not is_minimal(zero, 1)

    # x1^6 twist is not divisible by x0-multiples only; u = x1 catches it
    other = WeierstrassData(
        m=1, k=1, field=F5,
        a1=Section.zero(1, 1, F5), a2=Section.zero(1, 2, F5),
        a3=Section.zero(1, 3, F5),
        a4=Section.zero(1, 4, F5),
        a6=Section.monomial(1, (0, 6), F5.one),
    )
    assert not is_minimal(other, 1)

    # a generic draw is minimal
    w = random_weierstrass(1, 1, F5, seed=3)
    assert is_minimal(w, 1)

    with pytest.raises(ValueError):
        minimality_witness(w, 0)


def test_minimality_checks_each_full_power():
    # over F_2 with u = x0 + x1: a_i = u^i except a3 = u^2 x0, so u^3 does
    # not divide a3; u is the only candidate dividing a1
    u = Section(1, 1, F2, {(1, 0): F2.one, (0, 1): F2.one})
    x0 = Section.monomial(1, (1, 0), F2.one)
    data = {1: u, 3: u ** 3, 4: u ** 4, 6: u ** 6}
    w = WeierstrassData(1, 1, F2, data[1], Section.zero(1, 2, F2), data[3],
                        data[4], data[6])
    assert minimality_witness(w, 1) == u
    w = WeierstrassData(1, 1, F2, data[1], Section.zero(1, 2, F2), u ** 2 * x0,
                        data[4], data[6])
    assert minimality_witness(w, 1) is None


def _enumerated_witness(w, j_max, monkeypatch):
    """The minimality search without the line certificate: the oracle."""
    with monkeypatch.context() as mp:
        mp.setattr(weier, "minimality_degree_bound", lambda w: None)
        return minimality_witness(w, j_max)


def _nonminimal_datum(F, m, k, u, seed):
    """a_i = u^i b_i for the varying a_i, with random b_i of degree i(k - deg u)."""
    secs = {i: Section.zero(m, i * k, F) for i in (1, 2, 3, 4, 6)}
    for i in varying_indices(F.p):
        secs[i] = u ** i * random_section(m, i * (k - u.d), F, 100 * seed + i)
    return WeierstrassData(m, k, F, secs[1], secs[2], secs[3], secs[4], secs[6])


@pytest.mark.parametrize("q", (2, 4, 9))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_line_certificate_against_the_enumeration(q, m, monkeypatch):
    F = make_field(*prime_power(q))
    seeds = range(12 if m < 3 else 4)
    for seed in seeds:  # random data: a witness fits under delta, delta = 0 has none
        w = random_weierstrass(m, 1, F, seed)
        delta = minimality_degree_bound(w)
        wit = _enumerated_witness(w, 1, monkeypatch)
        assert minimality_witness(w, 1) == wit
        assert wit is None or delta is None or wit.d <= delta
    for seed in seeds:  # non-minimal data: never certified, same witness
        u = random_section(m, 1, F, seed)
        if u.is_zero:
            continue
        w = _nonminimal_datum(F, m, 2, u, seed)
        delta = minimality_degree_bound(w)
        assert delta is None or delta >= 1
        wit = _enumerated_witness(w, 1, monkeypatch)
        assert wit is not None and minimality_witness(w, 1) == wit
        assert delta is None or wit.d <= delta


def test_line_certificate_bounds_higher_degree_witnesses(monkeypatch):
    # u of degree 2 on P^1 and P^2: delta >= 2, and the jmax = 2 search
    # finds the enumeration's witness
    for F, m in ((make_field(2, 2), 1), (make_field(3, 2), 1), (F2, 2)):
        for seed in range(3):
            u = random_section(m, 2, F, seed)
            w = _nonminimal_datum(F, m, 2, u, seed)
            delta = minimality_degree_bound(w)
            assert delta is None or delta >= 2
            wit = _enumerated_witness(w, 2, monkeypatch)
            assert wit is not None and minimality_witness(w, 2) == wit
            assert delta is None or wit.d <= delta


def test_line_certificate_on_coordinate_lines():
    # P^2 over F_5, a4 = x0^4 + x1^4 and a6 = x0^6: on the line x2 = 0 the
    # dehomogenizations at x1 = 1 are t^4 + 1 and t^6, coprime, and a4 has
    # x1-valuation 0, so delta = 0 and no candidate is counted
    F = F5
    zero = {i: Section.zero(2, i, F) for i in (1, 2, 3)}
    a4 = Section(2, 4, F, {(4, 0, 0): F.one, (0, 4, 0): F.one})
    a6 = Section.monomial(2, (6, 0, 0), F.one)
    w = WeierstrassData(2, 1, F, zero[1], zero[2], zero[3], a4, a6)
    assert minimality_degree_bound(w) == 0
    assert minimality_witness(w, 1, cap=1) is None
    # a4 = x0^4: the lines x2 = 0 and x1 = 0 see gcd x0^4, and on x0 = 0
    # both forms vanish, so delta = 4 and the search finds u = x0
    w = WeierstrassData(2, 1, F, zero[1], zero[2], zero[3],
                        Section.monomial(2, (4, 0, 0), F.one), a6)
    assert minimality_degree_bound(w) == 4
    assert minimality_witness(w, 1) == Section.monomial(2, (1, 0, 0), F.one)
    # the zero datum: no line bounds anything, the enumeration decides
    w = WeierstrassData(2, 1, F, zero[1], zero[2], zero[3],
                        Section.zero(2, 4, F), Section.zero(2, 6, F))
    assert minimality_degree_bound(w) is None
    assert minimality_witness(w, 1) is not None


def test_slots_roundtrip_and_determinism():
    for F, m, k in ((F2, 2, 2), (F3, 1, 2), (F5, 1, 1), (make_field(2, 2), 1, 1)):
        n_slots = total_slots(m, k, F)
        g = len(varying_indices(F.p))
        assert n_slots == sum(dim_space(m, i * k) for i in varying_indices(F.p)) * F.n
        s1 = weierstrass_slots(m, k, F, seed=21)
        s2 = weierstrass_slots(m, k, F, seed=21)
        assert (s1 == s2).all()
        w = weierstrass_from_slots(m, k, F, s1)
        w2 = random_weierstrass(m, k, F, seed=21)
        for i in (1, 2, 3, 4, 6):
            assert w.sections()[i].coeffs == w2.sections()[i].coeffs
        assert g == len([i for i in varying_indices(F.p)])


def test_serialization_roundtrip(tmp_path):
    for F, m, k in ((F2, 1, 2), (make_field(3, 2), 1, 1), (F5, 2, 1)):
        w = random_weierstrass(m, k, F, seed=77)
        path = tmp_path / f"w_{F.p}_{F.n}.json"
        dump_weier(w, str(path))
        back = load_weier(str(path))
        assert back.field == w.field
        assert back.m == w.m and back.k == w.k
        for i in (1, 2, 3, 4, 6):
            assert back.sections()[i].coeffs == w.sections()[i].coeffs


def test_from_obj_rejects_garbage():
    w = random_weierstrass(1, 1, F5, seed=1)
    obj = weier_to_obj(w)
    obj2 = dict(obj)
    del obj2["field"]
    with pytest.raises(ValueError):
        weier_from_obj(obj2)
    obj3 = dict(obj)
    obj3["format_version"] = 999
    with pytest.raises(ValueError):
        weier_from_obj(obj3)


# residue fields of up to 125 elements in characteristics 2, 3, 5, 7
_BATCH_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


def _planted_row(F, m, draw):
    """Index row (g, m+1) of jets with a singular fiber point at a drawn
    (x, y): solve dF/dy, dF/dx, F and the base partials for a3, a4, a6 and
    the gradient of a6, the other varying entries drawn freely."""
    def elem():  # zero often, so that every branch of the closed form is hit
        return F.from_index(draw(st.just(0) | st.integers(0, F.size - 1)))

    vary = varying_indices(F.p)
    zero = F.zero
    x = elem()
    y = elem() if F.p == 2 else zero
    val = {i: elem() if i in vary else zero for i in (1, 2)}
    grad = {i: [elem() if i in vary else zero for _ in range(m)] for i in (1, 2, 3, 4)}
    a1, a2 = val[1], val[2]
    a3 = -(2 * y + a1 * x)
    a4 = a1 * y - 3 * (x * x) - 2 * (a2 * x)
    a6 = y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x
    g6 = [g1 * x * y + g3 * y - g2 * x * x - g4 * x
          for g1, g2, g3, g4 in zip(grad[1], grad[2], grad[3], grad[4])]
    val.update({3: a3, 4: a4, 6: a6})
    grad[6] = g6
    return [[val[i].idx] + [d.idx for d in grad[i]] for i in vary]


def _single_jets(F, row):
    """FieldElem jets from one index row, built without the batch code."""
    zero = Jet(value=F.zero, gradient=(F.zero,) * (len(row[0]) - 1))
    jets = {i: zero for i in (1, 2, 3, 4, 6)}
    for i, entries in zip(varying_indices(F.p), row):
        elems = [F.from_index(int(c)) for c in entries]
        jets[i] = Jet(value=elems[0], gradient=tuple(elems[1:]))
    return WeierstrassJets(F, jets[1], jets[2], jets[3], jets[4], jets[6])


@pytest.mark.parametrize("p,n", _BATCH_FIELDS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_detector_and_discriminant_match_scalar_and_oracle(p, n, data):
    m = data.draw(st.integers(1, 2))
    F = make_field(p, n)
    g = len(varying_indices(p))
    rows = []
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            rows.append(_planted_row(F, m, data.draw))
        else:
            flat = data.draw(st.lists(st.integers(0, F.size - 1),
                                      min_size=g * (m + 1), max_size=g * (m + 1)))
            rows.append([flat[s * (m + 1):(s + 1) * (m + 1)] for s in range(g)])
    J = jets_from_indices(F, np.array(rows, dtype=np.int64))
    hit = singular_jets_closed_form(J)
    delta = discriminant_value(*J.values())
    assert hit.mask.shape == hit.x.shape == hit.y.shape == (len(rows),)
    for i, row in enumerate(rows):
        single = _single_jets(F, row)
        oracle = singular_jets_oracle(single)
        assert bool(hit.mask[i]) == (oracle is not None)
        if hit.mask[i]:
            # a singular fiber has one singular point, so both find the same
            assert (hit.x[i], hit.y[i]) == oracle
            assert jacobian_vanishes(single, hit.x[i], hit.y[i])
        assert delta[i] == discriminant_value(*single.values())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_detector_broadcasts_values_against_gradients(p, m):
    # every tuple over F_p as (V, 1) value rows against (1, W) gradient rows
    F = make_field(p, 1)
    g = len(varying_indices(p))
    vals = np.stack(np.unravel_index(np.arange(p ** g), (p,) * g), axis=-1)
    grads = np.stack(np.unravel_index(np.arange(p ** (g * m)), (p,) * (g * m)),
                     axis=-1).reshape(-1, g, m)
    V, W = len(vals), len(grads)
    J = jets_from_indices(F, vals[:, None], grads[None])
    assert J.shape == (V, W)
    hit = singular_jets_closed_form(J)
    assert hit.mask.shape == hit.x.shape == hit.y.shape == (V, W)
    rows = np.concatenate((np.broadcast_to(vals[:, None, :, None], (V, W, g, 1)),
                           np.broadcast_to(grads[None], (V, W, g, m))), axis=-1)
    flat = singular_jets_closed_form(jets_from_indices(F, rows.reshape(V * W, g, m + 1)))
    assert np.array_equal(hit.mask.ravel(), flat.mask)
    assert np.array_equal(hit.x.idx.ravel(), flat.x.idx)
    assert np.array_equal(hit.y.idx.ravel(), flat.y.idx)
    assert hit.mask.any() and not hit.mask.all()
    # the lanes of the broadcast batch are the tuples' own jets, in C order
    if V * W <= 4096:
        assert list(J.lanes()) == [_single_jets(F, r) for r in rows.reshape(-1, g, m + 1)]
    pick = np.zeros((V, W), dtype=bool)
    pick[0, 0] = pick[-1, -1] = True
    pick[np.unravel_index(np.flatnonzero(hit.mask)[:4], (V, W))] = True
    for i, j, lane in zip(*np.nonzero(pick), J.lanes(pick), strict=True):
        assert lane == _single_jets(F, rows[i, j])
        assert (singular_jets_oracle(lane) is not None) == bool(hit.mask[i, j])
    # values that fail F, dF/dx or dF/dy: the mask still has the joint shape
    fail = vals[~singular_jets_closed_form(
        jets_from_indices(F, vals, np.zeros((V, g, 0), dtype=np.int64))).mask]
    assert len(fail)
    dead = singular_jets_closed_form(jets_from_indices(F, fail[:, None], grads[None]))
    assert dead.mask.shape == dead.x.shape == dead.y.shape == (len(fail), W)
    assert not dead.mask.any()


# sha256 of json.dumps(w.delta.to_obj()) for random_weierstrass(m, k, F_q,
# seed), recorded with the term-by-term product loop that preceded the
# convolution kernel: ((q, m, k, seed), terms, digest)
DELTA_DIGESTS = [
    ((2, 2, 9, 1), 2987, "e909e058530d899ed758e1a0a69358559c49cf49f329dae47185aadf738e6359"),
    ((2, 2, 9, 2), 2914, "07ba29633a18d3c08038bf109add3915b80d557f69fce68643464d6b8b70c82b"),
    ((4, 2, 4, 1), 907, "cdf5f17ed728896d85330118acc87c301578b76ee44f894858298f77e9fa1437"),
    ((4, 2, 4, 2), 942, "4936c7f61a4f90748a6dff4c8b85e33e4102b69fe2cdb31275f34ef4256dbe6c"),
    ((9, 1, 3, 1), 34, "c657522d24b45d05711184fcc43fdecfb8851ebe05435f9e83fe8d12f3d19ee5"),
    ((9, 1, 3, 2), 33, "c7737e1933d5a8a03687cba655b8f7afa17bab4eb3593b66954798635b578b72"),
    ((5, 2, 1, 1), 68, "5082ba878fe50b98fe75c6bc37648670c35d0828b2187e4b22a75256b3e9b435"),
    ((5, 2, 1, 2), 71, "7ebbd86d878bb09e68a1e902974c75ef09a69fdf7c5a0c549995d87373572dc5"),
    ((3, 2, 2, 1), 202, "51b91b472aa0d2ad4aaba34594ce42f58412394251a754f8398abc2d5fc04640"),
    ((3, 2, 2, 2), 209, "85c1ef873a98f667111d96a7225fb42b062da8608e493d4ee86b2aa067490267"),
    ((257, 1, 2, 1), 25, "2b63cc0173281e7d6b7ce311666dcb3823d67317c8c073b5469aa0d1640a1cdc"),
    ((257, 1, 2, 2), 25, "96fff7521332dd0ed7416e34d3d348f176f6ccc8437be1bd441af4e0088b620f"),
]


@pytest.mark.parametrize("case,terms,digest", DELTA_DIGESTS)
def test_discriminant_digests(case, terms, digest):
    q, m, k, seed = case
    p, n = prime_power(q)
    w = random_weierstrass(m, k, make_field(p, n), seed)
    assert len(w.delta.coeffs) == terms
    assert hashlib.sha256(json.dumps(w.delta.to_obj()).encode()).hexdigest() == digest


# the batched slot draw computes NumPy's per-seed recipe: seeds at the word
# boundaries of the SeedSequence entropy, and Monte-Carlo's sample seeds
_DRAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [sample_seed(3, i) for i in range(27)]
_DRAW_PRIMES = [2, 3, 5, 7, 131, 251, 257, 65521, 65537, 2**31 - 1]


def _numpy_draw(p, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, p, size=cols, dtype=np.min_scalar_type(p - 1))


def test_seed_words_are_the_seed_sequence_state():
    words = weier._seed_words(_DRAW_SEEDS)
    assert words.shape == (4, len(_DRAW_SEEDS)) and words.dtype == np.uint64
    for j, s in enumerate(_DRAW_SEEDS):
        assert (words[:, j] == np.random.SeedSequence(s).generate_state(4, np.uint64)).all()


def test_pcg64_states_are_numpys():
    states = weier._pcg64_states(weier._seed_words(_DRAW_SEEDS))
    for (state, inc), s in zip(states, _DRAW_SEEDS):
        assert np.random.PCG64(s).state["state"] == {"state": state, "inc": inc}


@pytest.mark.parametrize("p", _DRAW_PRIMES)
def test_slot_rows_are_numpys_per_seed_draws(p):
    for cols in (1, 9, 362):
        rows = weierstrass_slot_rows(p, cols, _DRAW_SEEDS)
        assert rows.shape == (len(_DRAW_SEEDS), cols)
        assert rows.dtype == np.min_scalar_type(p - 1)
        for row, s in zip(rows, _DRAW_SEEDS):
            assert (row == _numpy_draw(p, cols, s)).all()


@pytest.mark.parametrize("p,share", [(2, 3), (5, 3), (131, 3), (257, 3), (65521, 3),
                                     (2**31 - 1, 3), (5, 1), (131, 1)])
def test_short_rows_draw_their_streams_again(p, share, monkeypatch):
    # a first draw of cols // 3 words leaves every row short; one of cols
    # words leaves some rows short beside full ones, at once for p = 5 and
    # on the second draw for p = 131, which rejects about half the words
    monkeypatch.setattr(weier, "_slot_word_budget", lambda cols, p, width: cols // share)
    passes = []
    bounded = weier._bounded_rows

    def counted(bg, seed_words, *args):
        passes.append(seed_words.shape[1])
        return bounded(bg, seed_words, *args)

    monkeypatch.setattr(weier, "_bounded_rows", counted)
    rows = weierstrass_slot_rows(p, 200, _DRAW_SEEDS)
    assert passes[0] == len(_DRAW_SEEDS) and passes[1] > 0
    if share == 1:
        assert any(0 < b < a for a, b in zip(passes, passes[1:]))
    for row, s in zip(rows, _DRAW_SEEDS):
        assert (row == _numpy_draw(p, 200, s)).all()


def test_slot_rows_fill_out_in_row_blocks(monkeypatch):
    # a budget of one row per block, the values cast into a float32 buffer
    monkeypatch.setattr(weier, "_ROW_BUDGET", 1)
    out = np.zeros((len(_DRAW_SEEDS), 100), dtype=np.float32)
    for p in (2, 5):
        assert weierstrass_slot_rows(p, 100, _DRAW_SEEDS, out) is out
        for row, s in zip(out, _DRAW_SEEDS):
            assert (row == _numpy_draw(p, 100, s)).all()


@pytest.mark.parametrize("p,cols", [(2, 10426), (5, 362), (131, 5000), (65521, 3000),
                                    (2**31 - 1, 3000)])
def test_slot_row_blocks_stay_within_the_row_budget(p, cols):
    seeds = [sample_seed(0, i) for i in range(512)]
    out = np.empty((len(seeds), cols), dtype=np.float32)
    dtype = np.min_scalar_type(p - 1)
    seed_words = weier._seed_words(seeds)
    bg = np.random.PCG64(0)
    tracemalloc.start()
    try:
        weier._bounded_rows(bg, seed_words, p, dtype,
                            weier._slot_word_budget(cols, p, 8 * dtype.itemsize), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= weier._ROW_BUDGET


def test_slot_rows_refuse_64_bit_draws():
    # NumPy draws uint64 values once p - 1 >= 2^32
    with pytest.raises(FeasibilityError):
        weierstrass_slot_rows(2**32 + 15, 4, [0])
