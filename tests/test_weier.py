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

from elldens import density, weier
from elldens.base import closed_points_up_to, jet_at, jet_space_map, scan_blocks
from elldens.density import sample_seed, singular_scan
from elldens.errors import FeasibilityError
from elldens.gf import embedding, make_field, prime_power
from elldens.sections import Section, dim_space
from elldens.weier import (WeierstrassData, WeierstrassJets,
                           discriminant_value, dump_weier,
                           infinity_partial, jacobian_vanishes,
                           jets_from_indices, load_weier,
                           minimality_degree_bound, minimality_witness,
                           random_weierstrass,
                           section_degrees, singular_jets_closed_form,
                           singular_jets_oracle, total_slots,
                           varying_indices, weier_from_obj, weier_to_obj,
                           weierstrass_from_slots, weierstrass_slot_rows,
                           weierstrass_slots)
from support import (dehomogenize, embed, evaluate, fiber_scan, lane_jets, monomial,
                     random_section)

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
            secs[i] = monomial(m, expo, field.from_int(c))
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
    x4 = monomial(1, (4, 0), F5.one)
    with pytest.raises(ValueError):
        # a_2 must vanish for p > 3
        WeierstrassData(m=1, k=k, field=F5,
                        a1=Section.zero(1, 1, F5),
                        a2=monomial(1, (2, 0), F5.one),
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
        # -16(4 a4^3 + 27 a6^2) for the two-coefficient shape, on the affine
        # reference, which shares no arithmetic with the term tables
        for chart in range(2):
            a4, a6 = dehomogenize(w.a4, chart), dehomogenize(w.a6, chart)
            assert dehomogenize(w.delta, chart) == a4 * a4 * a4 * -64 + a6 * a6 * -432
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
                    vals = [evaluate(s, pt, e) for s in (w.a1, w.a2, w.a3, w.a4, w.a6)]
                    assert evaluate(delta, pt, e) == discriminant_value(*vals)


def _block_lanes(w, r):
    """Each closed point of degree <= r with the datum's jets there, a lane
    of its scan block's one jet product, as single-point jets."""
    for b in scan_blocks(w.m, w.field.size, r, section_degrees(w.field.p, w.k)):
        yield from ((P, jets_from_indices(b.field, row))
                    for P, row in zip(b.points, jet_at(w.slots(), b), strict=True))


def _closed_form_vs_oracle(w, r):
    """Per closed point of degree <= r, the closed form's and the oracle's
    verdict and witness: both detectors on each scan block's batch, the
    witness (x, y) as element indices, (0, 0) off the mask."""
    for b in scan_blocks(w.m, w.field.size, r, section_degrees(w.field.p, w.k)):
        J = jets_from_indices(b.field, jet_at(w.slots(), b))
        hit, ref = singular_jets_closed_form(J), singular_jets_oracle(J)
        for i in range(len(b.points)):
            yield ((bool(hit.mask[i]), (hit.x.idx[i], hit.y.idx[i]) if hit.mask[i] else (0, 0)),
                   (bool(ref.mask[i]), (ref.x.idx[i], ref.y.idx[i])))


def test_jets_at_values():
    w = _monomial_datum(F5, 1, 1, {4: 3, 6: 1})
    lanes = list(_block_lanes(w, 2))
    assert [P for P, _ in lanes] == closed_points_up_to(1, 5, 2)
    for P, J in lanes:
        x0 = P.coords[0]
        want4 = embed(P.emb, F5.from_int(3)) * x0 ** 4
        a1, _, _, a4, _ = J.forms(J.values)
        assert a4.idx == want4.idx
        assert a1.idx == P.field.zero.idx


def test_infinity_section_never_singular():
    # the Z-partial at (0 : 1 : 0) is identically 1, whatever the jets are
    rng = random.Random("inf")
    for F in (F2, F3, F5):
        for _ in range(20):
            w = random_weierstrass(1, 1, F, seed=rng.randrange(10**6))
            for P, J in _block_lanes(w, 1):
                assert infinity_partial(J).idx == P.field.one.idx


@pytest.mark.parametrize("F,m,r,seeds", [
    (F2, 1, 2, 30), (F3, 1, 2, 30), (F5, 1, 2, 20),
    (F2, 2, 1, 12), (F3, 2, 1, 8), (F5, 2, 1, 8),
])
def test_closed_form_matches_oracle(F, m, r, seeds):
    for seed in range(seeds):
        w = random_weierstrass(m, 1, F, seed=7000 + seed)
        for a, b in _closed_form_vs_oracle(w, r):
            assert a == b


def test_closed_form_matches_oracle_extension_field():
    F4 = make_field(2, 2)
    F9 = make_field(3, 2)
    for F in (F4, F9):
        for seed in range(8):
            w = random_weierstrass(1, 1, F, seed=seed)
            for a, b in _closed_form_vs_oracle(w, 1):
                assert a == b


def test_witnesses_satisfy_jacobian():
    # any witness returned must make F and all partials vanish; the
    # SingularityWitness constructor re-checks, so it just needs to build
    hits = 0
    pts = closed_points_up_to(1, 3, 2)
    for seed in range(40):
        w = random_weierstrass(1, 1, F3, seed=seed)
        at = [pts.index(wit.point) for wit in singular_scan(w, 2)]
        hits += len(at)
        assert at == sorted(set(at))  # one witness per listed point, in order
    assert hits > 0  # the sweep is not vacuous


def test_node_datum():
    w = _monomial_datum(F7, 1, 1, {4: -3, 6: 2})
    assert w.delta.is_zero
    wits = singular_scan(w, 2)
    assert [wit.point for wit in wits] == closed_points_up_to(1, 7, 2)
    for wit in wits:
        if wit.point.chart == 0:
            assert wit.x == wit.point.field.one and wit.y == wit.point.field.zero


def test_cusp_datum():
    w = _monomial_datum(F5, 1, 1, {})  # y^2 = x^3
    assert w.delta.is_zero
    wits = singular_scan(w, 2)
    assert [wit.point for wit in wits] == closed_points_up_to(1, 5, 2)
    for wit in wits:
        assert wit.x == wit.point.field.zero and wit.y == wit.point.field.zero
    assert singular_scan(w, 2) != []


def test_singular_scan_one_jet_product_and_detector_call_per_degree(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(density, "jet_at", counted("jet_at", density.jet_at))
    monkeypatch.setattr(density, "singular_jets_closed_form",
                        counted("detector", density.singular_jets_closed_form))
    w = random_weierstrass(2, 1, make_field(2, 2), seed=10)
    hits = singular_scan(w, 2)
    assert calls == ["jet_at", "detector"] * 2
    assert {h.point.degree for h in hits} == {1, 2}
    for h in hits:
        assert jacobian_vanishes(h.jets, h.x, h.y)
        # the lane equals the jets of the point's own one-point block
        one = jet_space_map(section_degrees(2, 1), (h.point,))
        [row] = jet_at(w.slots(), one)
        assert np.array_equal(h.jets.values, row[:, 0])
        assert np.array_equal(h.jets.gradients, row[:, 1:])


def test_smooth_up_to_frozen_seeds():
    # seeds checked once against the exhaustive oracle and pinned
    for seed in (0, 1, 2, 3):
        w = random_weierstrass(1, 1, F5, seed=seed)
        assert singular_scan(w, 2) == []
    w = random_weierstrass(1, 1, F5, seed=13)
    assert singular_scan(w, 1) != []


def test_minimality():
    non_min = _monomial_datum(F5, 1, 1, {6: 1})  # a6 = x0^6
    wit = minimality_witness(non_min, 1)
    assert wit is not None and wit.d == 1
    assert minimality_witness(non_min, 1) is not None

    # all-zero data is divisible by anything: vacuously non-minimal
    zero = _monomial_datum(F5, 1, 1, {})
    assert minimality_witness(zero, 1) is not None

    # x1^6 twist is not divisible by x0-multiples only; u = x1 catches it
    other = WeierstrassData(
        m=1, k=1, field=F5,
        a1=Section.zero(1, 1, F5), a2=Section.zero(1, 2, F5),
        a3=Section.zero(1, 3, F5),
        a4=Section.zero(1, 4, F5),
        a6=monomial(1, (0, 6), F5.one),
    )
    assert minimality_witness(other, 1) is not None

    # a generic draw is minimal
    w = random_weierstrass(1, 1, F5, seed=3)
    assert minimality_witness(w, 1) is None

    with pytest.raises(ValueError):
        minimality_witness(w, 0)


def test_minimality_checks_each_full_power():
    # over F_2 with u = x0 + x1: a_i = u^i except a3 = u^2 x0, so u^3 does
    # not divide a3; u is the only candidate dividing a1
    u = Section(1, 1, F2, {(1, 0): F2.one, (0, 1): F2.one})
    x0 = monomial(1, (1, 0), F2.one)
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


def test_line_bound_refuses_forms_past_the_cap():
    # a4 = x1^8 and a6 = x0^12 at k = 2: (12 + 1)^2 = 169 field operations,
    # above 64 per candidate at cap 2 and within it at cap 3, where the lines
    # certify the datum minimal
    zero = {i: Section.zero(1, 2 * i, F5) for i in (1, 2, 3)}
    w = WeierstrassData(1, 2, F5, zero[1], zero[2], zero[3], monomial(1, (0, 8), F5.one),
                        monomial(1, (12, 0), F5.one))
    with pytest.raises(FeasibilityError, match=r"^minimality line bound on a6 of degree 12 "
                                               r"needs up to \(12\+1\)\^2 field operations "
                                               r"> 64 \* cap 2$"):
        minimality_witness(w, 1, cap=2)
    assert minimality_witness(w, 1, cap=3) is None


def test_line_certificate_on_coordinate_lines():
    # P^2 over F_5, a4 = x0^4 + x1^4 and a6 = x0^6: on the line x2 = 0 the
    # dehomogenizations at x1 = 1 are t^4 + 1 and t^6, coprime, and a4 has
    # x1-valuation 0, so delta = 0 and no candidate is counted
    F = F5
    zero = {i: Section.zero(2, i, F) for i in (1, 2, 3)}
    a4 = Section(2, 4, F, {(4, 0, 0): F.one, (0, 4, 0): F.one})
    a6 = monomial(2, (6, 0, 0), F.one)
    w = WeierstrassData(2, 1, F, zero[1], zero[2], zero[3], a4, a6)
    assert minimality_degree_bound(w) == 0
    assert minimality_witness(w, 1, cap=1) is None
    # a4 = x0^4: the lines x2 = 0 and x1 = 0 see gcd x0^4, and on x0 = 0
    # both forms vanish, so delta = 4 and the search finds u = x0
    w = WeierstrassData(2, 1, F, zero[1], zero[2], zero[3],
                        monomial(2, (4, 0, 0), F.one), a6)
    assert minimality_degree_bound(w) == 4
    assert minimality_witness(w, 1) == monomial(2, (1, 0, 0), F.one)
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
            assert w.sections()[i].terms() == w2.sections()[i].terms()
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
            assert back.sections()[i].terms() == w.sections()[i].terms()


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
    hit, oracle = singular_jets_closed_form(J), singular_jets_oracle(J)
    delta = discriminant_value(*J.forms(J.values))
    assert hit.mask.shape == hit.x.shape == hit.y.shape == (len(rows),)
    for i, row in enumerate(rows):
        assert hit.mask[i] == oracle.mask[i]
        if hit.mask[i]:
            # a singular fiber has one singular point, so both find the same
            assert (hit.x[i], hit.y[i]) == (oracle.x[i], oracle.y[i])
            assert jacobian_vanishes(jets_from_indices(F, np.array(row)), hit.x[i], hit.y[i])
        assert delta[i] == discriminant_value(*(jet[0] for jet in lane_jets(F, row)))


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
    J = WeierstrassJets(F, vals[:, None], grads[None])
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
    # a lane of the broadcast batch is its tuple's own index rows: the scalar
    # fiber scan of those rows agrees with both detectors there
    pick = np.zeros((V, W), dtype=bool)
    pick[0, 0] = pick[-1, -1] = True
    pick[np.unravel_index(np.flatnonzero(hit.mask)[:4], (V, W))] = True
    oracle = singular_jets_oracle(J)
    for i, j in zip(*np.nonzero(pick)):
        assert oracle.mask[i, j] == hit.mask[i, j] == (fiber_scan(F, rows[i, j]) is not None)
    # and the oracle's verdict and witness on every lane of the broadcast batch
    assert oracle.mask.shape == oracle.x.shape == oracle.y.shape == (V, W)
    assert np.array_equal(oracle.mask, hit.mask)
    assert np.array_equal(oracle.x.idx[hit.mask], hit.x.idx[hit.mask])
    assert np.array_equal(oracle.y.idx[hit.mask], hit.y.idx[hit.mask])
    # values that fail F, dF/dx or dF/dy: the mask still has the joint shape
    fail = vals[~singular_jets_closed_form(
        WeierstrassJets(F, vals, np.zeros((V, g, 0), dtype=np.int64))).mask]
    assert len(fail)
    dead = singular_jets_closed_form(WeierstrassJets(F, fail[:, None], grads[None]))
    assert dead.mask.shape == dead.x.shape == dead.y.shape == (len(fail), W)
    assert not dead.mask.any()


# every field with a value table that the tests or the benchmark reach
_TABLE_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (5, 3),
                 (7, 1), (7, 2)]


def _all_values(F):
    """Every value tuple over F, (Q^g, g), in key order."""
    g = len(varying_indices(F.p))
    return np.stack(np.unravel_index(np.arange(F.size ** g), (F.size,) * g), axis=-1)[:, ::-1]


def _sparse_gradients(F, shape, seed):
    """Seeded gradient entries, zero half of the time, so that the base
    conditions often hold and the mask has hits."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < 0.5, 0, rng.integers(0, F.size, shape))


def _both_paths(J, monkeypatch):
    """Detector and discriminant verdict through the field's value table,
    then through the formulas (the table limit forced to 0)."""
    assert weier.value_keys(J) is not None
    runs = []
    for limit in (weier._VALUE_TABLE_LIMIT, 0):
        monkeypatch.setattr(weier, "_VALUE_TABLE_LIMIT", limit)
        runs.append((singular_jets_closed_form(J), weier.delta_vanishes(J)))
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("p,n", _TABLE_FIELDS)
@pytest.mark.parametrize("m", [1, 2])
def test_value_table_path_equals_formula_path(p, n, m, monkeypatch):
    F = make_field(p, n)
    vals = _all_values(F)
    g = vals.shape[1]
    # lanes (S, P): every value tuple once, each with its own gradients
    S = F.size ** (g - 1)
    grads = _sparse_gradients(F, (S, F.size, g, m), seed=1000 * p + 10 * n + m)
    lanes = WeierstrassJets(F, vals.reshape(S, F.size, g), grads)
    # census (V, 1) x (1, W): every value tuple against W gradient tuples
    census = WeierstrassJets(F, vals[:, None], _sparse_gradients(F, (1, 6, g, m), seed=m))
    for J, shape in ((lanes, (S, F.size)), (census, (len(vals), 6))):
        (table, dz_table), (formula, dz_formula) = _both_paths(J, monkeypatch)
        assert table.mask.shape == table.x.shape == table.y.shape == shape
        assert table.mask.dtype == formula.mask.dtype == bool
        assert table.x.idx.dtype == formula.x.idx.dtype == np.int64
        assert np.array_equal(table.mask, formula.mask)
        assert np.array_equal(table.x.idx, formula.x.idx)
        assert np.array_equal(table.y.idx, formula.y.idx)
        assert np.array_equal(dz_table, dz_formula)
        assert table.mask.any()
    # every value tuple's verdicts are the formulas' on that tuple alone
    built = weier.value_table(F)
    assert built.x.dtype == built.y.dtype == np.min_scalar_type(F.size - 1)
    no_grad = WeierstrassJets(F, vals, np.zeros(vals.shape + (0,), dtype=np.int64))
    passes, x, y = weier._value_stage(no_grad)
    assert np.array_equal(built.passes, passes)
    assert np.array_equal(built.x, x.idx) and np.array_equal(built.y, y.idx)
    assert np.array_equal(built.delta_zero,
                          discriminant_value(*no_grad.forms(no_grad.values)).is_zero)


@pytest.mark.parametrize("p,n,m,limit", [
    (p, n, m, None) for p, n in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)) for m in (1, 2)
] + [(5, 2, 2, 0)])
def test_detector_gathers_broadcast_entries_as_their_joint_copies(p, n, m, limit, monkeypatch):
    # (V, 1, g) values against (1, W, g, m) gradients: the verdicts of the
    # same tuples copied out to the joint shape, whose values and gradients
    # the detector gathers as they are; limit 0 takes the value stage's
    # formula path
    if limit is not None:
        monkeypatch.setattr(weier, "_VALUE_TABLE_LIMIT", limit)
    F = make_field(p, n)
    vals = _all_values(F)[:, None]
    g = vals.shape[-1]
    grads = _sparse_gradients(F, (1, 8, g, m), seed=100 * p + 10 * n + m)
    jv, jg = np.broadcast_arrays(vals[..., None], grads)
    jv, jg = jv[..., 0].copy(), jg.copy()
    J0 = WeierstrassJets(F, vals, grads)
    assert (weier.value_keys(J0) is None) == (limit == 0)
    # also one gradient tuple that has hits, an array without lane axes, for
    # every value tuple, against its copy beside each one
    one = grads[0, np.flatnonzero(singular_jets_closed_form(J0).mask.any(axis=0))[0]]
    copies = np.broadcast_to(one, vals.shape[:-1] + one.shape).copy()
    for J, joint, shape in ((J0, WeierstrassJets(F, jv, jg), (len(vals), 8)),
                            (WeierstrassJets(F, vals, one), WeierstrassJets(F, vals, copies),
                             (len(vals), 1))):
        assert J.shape == joint.shape == shape
        hit, ref = singular_jets_closed_form(J), singular_jets_closed_form(joint)
        assert np.array_equal(hit.mask, ref.mask)
        assert np.array_equal(hit.x.idx, ref.x.idx)
        assert np.array_equal(hit.y.idx, ref.y.idx)
        assert hit.mask.any() and not hit.mask.all()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_linear_form_base_stage_matches_the_oracle(p, n, data):
    # the base stage's one linear form per direction over the varying forms
    # against the fiber scan, on joint-shaped lanes, on (V, 1) values
    # against (1, W) gradients (planted rows pair up on the diagonal), and
    # on both with the first row's gradients, an array without lane axes,
    # for every lane
    F = make_field(p, n)
    m = data.draw(st.integers(1, 2))
    g = len(varying_indices(p))
    rows = [_planted_row(F, m, data.draw) for _ in range(data.draw(st.integers(2, 5)))]
    free = data.draw(st.lists(st.integers(0, F.size - 1), min_size=2 * g * (m + 1),
                              max_size=2 * g * (m + 1)))
    idx = np.concatenate([np.array(rows), np.reshape(free, (2, g, m + 1))])
    joint = jets_from_indices(F, idx)
    cross = WeierstrassJets(F, idx[:, None, :, 0], idx[None, :, :, 1:])
    batches = [joint, cross] + [WeierstrassJets(F, J.values, idx[0, :, 1:]) for J in (joint, cross)]
    for J in batches:
        hit, ref = singular_jets_closed_form(J), singular_jets_oracle(J)
        assert hit.mask.shape == ref.mask.shape == J.shape
        assert np.array_equal(hit.mask, ref.mask)
        assert np.array_equal(hit.x.idx[hit.mask], ref.x.idx[ref.mask])
        assert np.array_equal(hit.y.idx[hit.mask], ref.y.idx[ref.mask])
    assert batches[0].shape == (len(idx),) and batches[1].shape == (len(idx), len(idx))
    assert singular_jets_closed_form(cross).mask.diagonal()[:len(rows)].all()


@pytest.mark.parametrize("p,n", [(5, 1), (2, 4)])
def test_detector_takes_a_batch_of_one_lane(p, n):
    # jets of shape (g, m+1): every entry is 0-d and so are mask, x and y
    F = make_field(p, n)
    g = len(varying_indices(p))
    rng = np.random.default_rng(p)
    for _ in range(20):
        row = np.where(rng.random((g, 3)) < 0.6, 0, rng.integers(0, F.size, (g, 3)))
        hit = singular_jets_closed_form(jets_from_indices(F, row))
        assert hit.mask.shape == hit.x.shape == hit.y.shape == ()
        oracle = singular_jets_oracle(jets_from_indices(F, row))
        assert oracle.mask.shape == oracle.x.shape == oracle.y.shape == ()
        assert hit.mask == oracle.mask
        if oracle.mask:
            assert (hit.x.idx, hit.y.idx) == (oracle.x.idx, oracle.y.idx)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fields_past_the_table_limit_build_none_and_match_the_oracle(p, n, data):
    F = make_field(p, n)
    assert weier.value_table(F) is None
    m = data.draw(st.integers(1, 2))
    rows = [_planted_row(F, m, data.draw) for _ in range(data.draw(st.integers(1, 4)))]
    J = jets_from_indices(F, np.array(rows, dtype=np.int64))
    hit, oracle = singular_jets_closed_form(J), singular_jets_oracle(J)
    for i in range(len(rows)):
        assert hit.mask[i] == oracle.mask[i]
        if hit.mask[i]:
            assert (hit.x[i], hit.y[i]) == (oracle.x[i], oracle.y[i])
    assert F not in weier._value_tables


# fields of 2 to 125 elements: F_125's fiber holds 15,625 points
_SCAN_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4), (5, 2), (3, 3), (5, 3)]


@pytest.mark.parametrize("p,n", _SCAN_FIELDS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fiber_scan_of_a_batch_matches_the_scalar_scan(p, n, data):
    # mask and first witness, lane by lane, on free rows, planted singular
    # rows and rows without a closed-form candidate (p = 2 with a1 = 0 and
    # a3 != 0, p = 3 with a2 = 0 and a4 != 0: dF/dy or dF/dx is a nonzero
    # constant there); then the first row alone as a 0-d batch
    m = data.draw(st.integers(1, 2))
    F = make_field(p, n)
    g = len(varying_indices(p))
    entry = st.just(0) | st.integers(0, F.size - 1)
    rows = []
    kinds = st.lists(st.sampled_from(["free", "planted", "no candidate"]), max_size=2)
    for kind in ["planted", "no candidate", "free", *data.draw(kinds)]:
        if kind == "planted":
            rows.append(_planted_row(F, m, data.draw))
            continue
        flat = data.draw(st.lists(entry, min_size=g * (m + 1), max_size=g * (m + 1)))
        row = [flat[s * (m + 1):(s + 1) * (m + 1)] for s in range(g)]
        if kind == "no candidate" and p in (2, 3):
            # the first varying form's value (a1, a2) is zero, the next one's (a3, a4) not
            row[0][0], row[1][0] = 0, data.draw(st.integers(1, F.size - 1))
        rows.append(row)
    idx = np.array(rows, dtype=np.int64)
    for batch, lanes in ((idx, rows), (idx[0], rows[:1])):
        got = singular_jets_oracle(jets_from_indices(F, batch))
        assert got.mask.shape == got.x.shape == got.y.shape == batch.shape[:-2]
        for hit, x, y, row in zip(got.mask.reshape(-1), got.x.idx.reshape(-1),
                                  got.y.idx.reshape(-1), lanes, strict=True):
            want = fiber_scan(F, row)
            assert hit == (want is not None)
            assert (x, y) == ((want[0].idx, want[1].idx) if hit else (0, 0))


@pytest.mark.parametrize("budget", [150, 5000])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_scan_chunks_give_one_answer(p, budget, monkeypatch):
    # census-shaped (V, 1) values against (1, W) gradients, scanned in
    # passes of 3 cells (runs of points of one lane) and of 104 cells
    # (several lanes a pass): the answer of the default passes
    F = make_field(p, 1)
    vals = _all_values(F)[:, None]
    J = WeierstrassJets(F, vals, _sparse_gradients(F, (1, 6, vals.shape[-1], 1), seed=p))
    want = singular_jets_oracle(J)
    monkeypatch.setattr(weier, "_ROW_BUDGET", budget)
    got = singular_jets_oracle(J)
    assert want.mask.any()
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.x.idx, want.x.idx) and np.array_equal(got.y.idx, want.y.idx)


def test_large_field_scan_builds_no_table():
    # F_{2^14}, no table.  y^2 = x^3 + a6 with a6 = x0^5 x1 + x1^6: the
    # candidate is (0, a6^(1/2)), and the base partial d(a6) vanishes only
    # at (0:1) (t^5 + 1 has derivative t^4 on x1 = 1, s + s^6 has 1 on x0 = 1)
    F = make_field(2, 14)
    a6 = Section(1, 6, F, {(5, 1): F.one, (0, 6): F.one})
    w = WeierstrassData(1, 1, F, *(Section.zero(1, d, F) for d in (1, 2, 3, 4)), a6)
    [hit] = singular_scan(w, 1)
    assert hit.point.coords == (F.zero, F.one)
    assert (hit.x, hit.y) == (F.zero, F.one)
    one = jet_space_map(section_degrees(2, 1), (hit.point,))
    [row] = jet_at(w.slots(), one)
    assert jacobian_vanishes(jets_from_indices(F, row), hit.x, hit.y)
    assert weier.value_table(F) is None and F not in weier._value_tables


def test_value_tables_are_built_lazily():
    # a fresh import, a census set-up and a point listing build no table
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from elldens import base, gf, weier\n"
            "assert not weier._value_tables\n"
            "for p, n in ((5, 1), (5, 3), (2, 1), (3, 2)):\n"
            "    gf.make_field(p, n)\n"
            "base.closed_points_up_to(1, 5, 3)\n"
            "assert not weier._value_tables, weier._value_tables\n"
            "weier.value_table(gf.make_field(5, 3))\n"
            "assert list(weier._value_tables) == [gf.make_field(5, 3)]\n")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_value_table_size_and_limit():
    F125 = make_field(5, 3)
    table = weier.value_table(F125)
    assert len(table.passes) == 125 ** 2
    assert sum(a.nbytes for a in table) < 64 * 1024
    assert not any(a.flags.writeable for a in table)
    assert weier.value_table(F125) is table  # kept per field
    # the limit admits F_125 at g = 2 and F_8 at g = 4, not F_16 at g = 4,
    # F_27 at g = 3 nor F_7^3 at g = 2
    assert weier.value_table(make_field(2, 3)) is not None
    for p, n in ((2, 4), (3, 3), (7, 3)):
        assert weier.value_table(make_field(p, n)) is None
    # a census within the default cap (q^(e g (m+1)) tuples, m >= 1) has
    # Q^g <= 2^13, so it always reads a table
    from elldens.base import DEFAULT_ENUM_CAP
    assert (DEFAULT_ENUM_CAP.bit_length() - 1) // 2 < weier._VALUE_TABLE_LIMIT.bit_length() - 1


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
    assert len(w.delta.terms()) == terms
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
