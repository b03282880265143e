"""Closed points of projective space and jet evaluation maps."""
import hashlib
import itertools
import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from elldens import base
from elldens.base import (ClosedPoint, JetKernel, PointBlock, closed_points_up_to,
                          exact_float_dtype, jet_at, jet_space_map, scan_blocks)
from elldens.density import singular_scan
from elldens.errors import FeasibilityError
from elldens.gf import (FieldCtx, FieldMismatchError, embedding, is_irreducible, make_field,
                        prime_power)
from elldens.linalg import rank_mod_p
from elldens.sections import Section, dim_space, monomials, section_from_slots, section_slots
from elldens.weier import Jet, random_weierstrass, section_degrees
from elldens.zeta import zeta_table
from support import (dehomogenize, evaluate, monomial, random_section, stored_nbytes,
                     vanishes)


def _jets(forms, block_points, kernel=None):
    """Jets of the forms at points of one residue field from one batched
    jet_at call, as one list of Jets per point."""
    block = PointBlock(tuple(s.d for s in forms), tuple(block_points), kernel)
    slots = np.concatenate([section_slots(s) for s in forms])
    res = block.field
    idx = jet_at(slots, block)
    return [[Jet(value=res.from_index(int(e[0])),
                 gradient=tuple(res.from_index(int(g)) for g in e[1:])) for e in pt]
            for pt in idx]


def _jet(s, P):
    return _jets([s], [P])[0][0]


@pytest.mark.parametrize("m,q,r", [(1, 2, 4), (1, 3, 3), (1, 5, 2), (2, 2, 3), (2, 3, 2)])
def test_point_counts_match_zeta(m, q, r):
    pts = closed_points_up_to(m, q, r)
    t = zeta_table(m, q, r)
    for e in range(1, r + 1):
        assert sum(1 for P in pts if P.degree == e) == t.a[e - 1]


def test_points_sorted_and_deterministic():
    pts = closed_points_up_to(1, 3, 3)
    again = closed_points_up_to(1, 3, 3)
    assert [(P.degree, P.chart, P.coords) for P in pts] == \
           [(P.degree, P.chart, P.coords) for P in again]
    degs = [P.degree for P in pts]
    assert degs == sorted(degs)


def test_point_structure():
    for P in closed_points_up_to(2, 2, 2):
        assert P.coords[P.chart] == P.field.one
        assert all(P.coords[j] == P.field.zero for j in range(P.chart))
        assert P.field.size == 2 ** P.degree
        lc = P.local_coords()
        assert len(lc) == 2
        assert lc == tuple(P.coords[j] for j in range(3) if j != P.chart)


def test_degree_exactness():
    # a degree-e point's coordinates do not all lie in a proper subfield:
    # orbit size e is enforced, so no degree-2 point is rational
    pts = closed_points_up_to(1, 2, 2)
    deg2 = [P for P in pts if P.degree == 2]
    assert len(deg2) == 1
    P = deg2[0]
    F4 = P.field
    a = P.coords[1] if P.chart == 0 else P.coords[0]
    assert a ** 2 != a  # not in F_2


def test_feasibility_cap():
    with pytest.raises(FeasibilityError):
        closed_points_up_to(2, 5, 9, cap=10_000)


# sha256 of [(degree, chart, coordinate indices)] per listing, recorded from
# the orbit walk that grew each orbit one Frobenius power at a time
POINT_LISTINGS = {
    (1, 2, 8): "5d6fc8b77e4cad95771960e3d1b0d219faac2a9da5e2b04cfe5ea603da77a9b2",
    (2, 2, 6): "b1d7f1855af7edeb71fac21fc9ccbdaf55395a2b9a13e55e854340104565d5f0",
    (3, 2, 3): "73aa64cc64036506a2030f2260d3651b1ff90b4bf44e405faed87a9bc74eb9a2",
    (1, 3, 6): "c29655fdb20c7440f7cd11c480ac78c84e607db765bfbfde60bd4fbb202b95b3",
    (2, 3, 3): "bd9b040bcf4d228f9eb2056f3e5c38df77516d9860fe997916a749db22faae8f",
    (1, 4, 4): "60ea96d3c80bf699dd0f3858b3ba4ab2cabcd53a0ea70049cff73b3950787317",
    (2, 4, 2): "c123c23286ae4164c20b5ebc3b7cb28297aab244118e7358e767b46ae82b7738",
    (1, 5, 4): "c94c40794920b0cd95f4fd2af162ac91695eafce5aa941b700cdd4441bc85ca1",
    (1, 8, 3): "0ab5fe9a0cb7093b41180481ac422d7d2eeb0bd7c659ed29957ba92eb35c7381",
    (2, 8, 2): "d2d4d591d2cbba347341caeb1c9999ae931fac4d09008635d94a6984d37af82b",
    (1, 9, 3): "519629452cb5eeccb0cf9bdd894e293e31a6521982f5d5085d427fc9dc9fd102",
    (2, 9, 2): "98f5dd854132e52a90f45774e5e234bf1986a5dbad2306f2a0865b21b0ba0320",
    (1, 16, 2): "c51b25d88488d6bb7b1f33ad84ec27a1b4df3253523b3fd53bbd71cb914c6522",
    (1, 27, 2): "3ef107b1be89be3409ff9b3fb66f11f6fa5aa5d914303425f9aa2008d2cfe7f2",
    (4, 2, 2): "c76b33261d3ab87827ed41a614bfe630c54e188441509c0fd5a55856524c0a74",
}


@pytest.mark.parametrize("m,q,r", list(POINT_LISTINGS))
def test_points_match_recorded_listing(m, q, r):
    listing = [(P.degree, P.chart, tuple(c.idx for c in P.coords))
               for P in closed_points_up_to(m, q, r)]
    assert hashlib.sha256(repr(listing).encode()).hexdigest() == POINT_LISTINGS[m, q, r]


@pytest.mark.parametrize("m,q,r", [(1, 2, 6), (2, 2, 4), (3, 2, 2), (1, 9, 2), (2, 3, 3),
                                   (1, 4, 3)])
def test_points_are_one_per_orbit_in_listing_order(m, q, r):
    # each listed point has e distinct conjugates, is the smallest of them by
    # coefficient sequence, shares an orbit with no other listed point, and
    # the list follows the first conjugate met in the listing of P^m(F_{q^e})
    # (chart by chart, free coordinates by index, the first outermost)
    seen = set()
    firsts = []
    for P in closed_points_up_to(m, q, r):
        orbit = [tuple(c ** q ** j for c in P.coords) for j in range(P.degree)]
        keys = [tuple(c.coeffs for c in pt) for pt in orbit]
        assert len(set(keys)) == P.degree
        assert keys[0] == min(keys)
        assert seen.isdisjoint(keys)
        seen.update(keys)
        first = min(tuple(c.idx for c in pt[P.chart + 1:]) for pt in orbit)
        firsts.append((P.degree, P.chart, first))
    assert firsts == sorted(firsts)


def test_point_keys_past_int64_are_refused():
    # listing positions and keys of a point run up to Q^(m+1), Q = q^r
    for m, q, r in [(1, 2 ** 32, 1), (2, 2 ** 21, 2)]:
        with pytest.raises(FeasibilityError, match="int64"):
            closed_points_up_to(m, q, r, cap=math.inf)
    with pytest.raises(FeasibilityError, match="int64"):
        scan_blocks(1, 2 ** 32, 1, section_degrees(2, 1), cap=math.inf)


def test_jet_value_matches_embedded_evaluation():
    rng = random.Random("jet-val")
    F3 = make_field(3, 1)
    for P in closed_points_up_to(1, 3, 2):
        for _ in range(5):
            coeffs = {e: F3.from_index(rng.randrange(3)) for e in monomials(1, 4)}
            s = Section(1, 4, F3, coeffs)
            J = _jet(s, P)
            direct = evaluate(s, P.coords, emb=P.emb)
            assert J.value == direct


def test_jet_gradient_matches_affine_partials():
    rng = random.Random("jet-grad")
    F2 = make_field(2, 1)
    for P in closed_points_up_to(2, 2, 2):
        for _ in range(4):
            coeffs = {e: F2.from_index(rng.randrange(2)) for e in monomials(2, 3)}
            s = Section(2, 3, F2, coeffs)
            J = _jet(s, P)
            aff = dehomogenize(s, P.chart)
            loc = P.local_coords()
            for j in range(1, 3):
                want = aff.partial(j).evaluate(loc, emb=P.emb)
                assert J.gradient[j - 1] == want


def test_jet_vanishes_property():
    F2 = make_field(2, 1)
    P = closed_points_up_to(1, 2, 1)[0]
    s = Section.zero(1, 4, F2)
    J = _jet(s, P)
    assert vanishes(J)
    s2 = monomial(1, (4, 0), F2.one)
    assert not vanishes(_jet(s2, P))  # value 1 at the (1:0) point


def test_jet_space_map_reproduces_jets():
    # multiplying each form's coefficient slots through its block equals
    # computing its jets directly, for every residue coordinate
    rng = random.Random("jet-mat")
    F2 = make_field(2, 1)
    degrees = (2, 3)
    for P in closed_points_up_to(1, 2, 3):
        jm = jet_space_map(degrees, (P,))
        res = P.field
        for d, block in zip(degrees, jm.kernel.blocks):
            slots = np.array([rng.randrange(2) for _ in range(dim_space(1, d))], dtype=np.int64)
            out = (block.astype(np.int64) @ slots) % 2
            s = Section(1, d, F2, {e: F2.from_index(int(slots[t]))
                                   for t, e in enumerate(monomials(1, d))})
            J = _jet(s, P)
            for entry, val in enumerate((J.value,) + J.gradient):
                row0 = entry * res.n
                got = res.elem(tuple(int(out[row0 + c]) for c in range(res.n)))
                assert got == val


def _oracle_entries(degrees, P, slots):
    """Value and gradient of each form at P, in the blocks' row order, by
    AffinePoly dehomogenize -> partial -> evaluate."""
    base = P.emb.src
    loc = P.local_coords()
    out = []
    off = 0
    for d in degrees:
        width = dim_space(P.m, d) * base.n
        s = section_from_slots(P.m, d, base, slots[off:off + width])
        off += width
        aff = dehomogenize(s, P.chart)
        out.append(aff.evaluate(loc, emb=P.emb))
        out += [aff.partial(j).evaluate(loc, emb=P.emb) for j in range(1, P.m + 1)]
    return out


def _block_entries(jm, slots):
    """Value and gradient of each form at the point, each from the form's
    own block times its own slice of the slots."""
    res = jm.point.field
    slots = np.asarray(slots, dtype=np.int64)
    out, col = [], 0
    for block in jm.kernel.blocks:
        vals = (block.astype(np.int64) @ slots[col:col + block.shape[1]]) % res.p
        col += block.shape[1]
        out += [res.elem(tuple(int(v) for v in vals[i:i + res.n]))
                for i in range(0, len(vals), res.n)]
    assert col == len(slots)
    return out


@lru_cache(maxsize=None)
def _oracle_points(m, q):
    """Up to three points of each degree 1, 2, with and without a zero local
    coordinate."""
    pts = closed_points_up_to(m, q, 2)
    out = []
    for e in (1, 2):
        for has_zero in (True, False):
            out += [P for P in pts if P.degree == e
                    and (not all(P.local_coords())) == has_zero][:3]
    return tuple(out)


# (2, 64, 1): degree-2 points have the 4096-element residue field F_{2^12},
# past the operation tables, read through the log tables' digit columns
ORACLE_CONFIGS = [(2, 4, 2), (3, 3, 2), (5, 25, 1), (3, 9, 1), (7, 7, 2), (2, 64, 1)]


def test_oracle_points_cover_degrees_and_zero_coordinates():
    for p, q, m in ORACLE_CONFIGS:
        pts = _oracle_points(m, q)
        assert {P.degree for P in pts} == {1, 2}
        assert any(not all(P.local_coords()) for P in pts if P.degree == 1)
        if m == 2:
            assert any(not all(P.local_coords()) for P in pts if P.degree == 2)


@pytest.mark.parametrize("p,q,m", ORACLE_CONFIGS)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_jet_space_map_matches_affine_oracle(p, q, m, data):
    # one degree is always >= p, so exponents divisible by p occur
    pts = _oracle_points(m, q)
    P = pts[data.draw(st.integers(0, len(pts) - 1), label="point")]
    drawn = data.draw(st.lists(st.integers(0, 3 * p), min_size=0, max_size=2),
                      label="degrees")
    degrees = (p + data.draw(st.integers(0, p), label="extra"),) + tuple(drawn)
    jm = jet_space_map(degrees, (P,))
    slots = data.draw(arrays(np.int64, jm.cols, elements=st.integers(0, p - 1),
                             fill=st.nothing()),
                      label="slots")
    assert _block_entries(jm, slots) == _oracle_entries(degrees, P, slots)


@pytest.mark.parametrize("q,m", [(4, 2), (9, 1), (25, 1)])
def test_jet_at_matches_affine_oracle(q, m):
    # base fields of degree 2 over F_p: a form's slot layout (monomial-major,
    # F_p coordinates innermost) matters here, unlike over F_2 and F_3; one
    # call takes four forms at all oracle points of one degree
    rng = random.Random(f"jet-at:{q}:{m}")
    for e in (1, 2):
        pts = [P for P in _oracle_points(m, q) if P.degree == e]
        base_field = pts[0].emb.src
        forms = [random_section(m, d, base_field, rng_seed=rng.randrange(1 << 30))
                 for d in (1, 2, pts[0].field.p + 1, 7)]
        for P, jets in zip(pts, _jets(forms, pts)):
            loc = P.local_coords()
            for s, J in zip(forms, jets):
                aff = dehomogenize(s, P.chart)
                assert J.value == aff.evaluate(loc, emb=P.emb)
                assert J.value == evaluate(s, P.coords, emb=P.emb)
                assert J.gradient == tuple(aff.partial(j).evaluate(loc, emb=P.emb)
                                           for j in range(1, m + 1))


@pytest.mark.parametrize("q,m,e", [(4, 2, 1), (4, 2, 2), (9, 1, 2), (5, 2, 1), (2, 2, 3)])
@pytest.mark.parametrize("budget", ["kept", "one chunk", "zero"])
def test_jet_at_batched_matches_affine_oracle(q, m, e, budget):
    # a kept kernel, one built for the call, and one-point blocks (as
    # scan_blocks cuts them at budget 0) give the oracle's jets; the third
    # form is zero
    rng = random.Random(f"jet-batch:{q}:{m}:{e}")
    pts = [P for P in closed_points_up_to(m, q, e) if P.degree == e][:9]
    base_field = pts[0].emb.src
    forms = [random_section(m, d, base_field, rng_seed=rng.randrange(1 << 30))
             for d in (2, 3)] + [Section.zero(m, 4, base_field)]
    degrees = tuple(s.d for s in forms)
    kernel = jet_space_map(degrees, pts).kernel if budget == "kept" else None
    groups = [[P] for P in pts] if budget == "zero" else [pts]
    for P, jets in zip(pts, [jets for g in groups for jets in _jets(forms, g, kernel)]):
        assert vanishes(jets[2])
        loc = P.local_coords()
        for s, J in zip(forms, jets):
            aff = dehomogenize(s, P.chart)
            assert J.value == aff.evaluate(loc, emb=P.emb)
            assert J.gradient == tuple(aff.partial(j).evaluate(loc, emb=P.emb)
                                       for j in range(1, m + 1))


def test_jet_at_mixed_chart_block_matches_affine_oracle():
    # one block over all 13 degree-1 points of P^2 over F_3: charts 0, 1
    # and 2 side by side, zero local coordinates included, each point's jets
    # checked against the AffinePoly partials in its own chart
    pts = tuple(closed_points_up_to(2, 3, 1))
    assert len(pts) == 13 and {P.chart for P in pts} == {0, 1, 2}
    assert any(not all(P.local_coords()) for P in pts)
    rng = random.Random("jet-mixed-charts")
    F3 = pts[0].emb.src
    forms = [random_section(2, d, F3, rng_seed=rng.randrange(1 << 30)) for d in (1, 3, 4, 6)]
    block = jet_space_map(tuple(s.d for s in forms), pts)
    assert block.point is pts[0] and block.kernel is not None
    for P, jets in zip(pts, _jets(forms, pts, block.kernel), strict=True):
        loc = P.local_coords()
        for s, J in zip(forms, jets):
            aff = dehomogenize(s, P.chart)
            assert J.value == aff.evaluate(loc, emb=P.emb)
            assert J.gradient == tuple(aff.partial(j).evaluate(loc, emb=P.emb)
                                       for j in range(1, 3))


def _drawn_point(data, m, base_field, e):
    """A point of P^m with a drawn chart and drawn free coordinates in
    F_{q^e}; it need not be an orbit's canonical representative, which no
    matrix reads."""
    res = make_field(base_field.p, base_field.n * e)
    chart = data.draw(st.integers(0, m), label="chart")
    coords = [data.draw(st.integers(0, res.size - 1), label="coord")
              for _ in range(m - chart)]
    return ClosedPoint(m=m, q=base_field.size, degree=e, chart=chart,
                       coords=(res.zero,) * chart + (res.one,) + tuple(map(res.from_index, coords)),
                       field=res, emb=embedding(base_field, res))


def _dense_rows(degrees, points):
    """The dense block-diagonal matrix of the points' jet_space_map blocks:
    form-major, then point, entry and residue coordinate, each form's rows
    against its own columns."""
    maps = [jet_space_map(degrees, (P,)).kernel.blocks for P in points]
    size = (points[0].m + 1) * points[0].field.n
    widths = [b.shape[1] for b in maps[0]]
    dense = np.zeros((len(degrees) * len(points) * size, sum(widths)), dtype=np.int64)
    col = 0
    for f, w in enumerate(widths):
        for i, blocks in enumerate(maps):
            row = (f * len(points) + i) * size
            dense[row:row + size, col:col + w] = blocks[f][:size]
        col += w
    return dense


# (p, base degree r, wide): a wide form at p = 257 has >= 256 columns, so its
# sums pass 2^24 and the product runs in float64; every other case in float32
KERNEL_CONFIGS = [(2, 1, False), (2, 2, False), (3, 1, False), (3, 2, False),
                  (5, 1, False), (5, 2, False), (257, 1, False), (257, 1, True)]


@pytest.mark.parametrize("p,r,wide", KERNEL_CONFIGS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_jet_kernel_matches_the_integer_product(p, r, wide, data):
    # points of one residue field, of degree 1 or 2 over the base; batches
    # of one and of many and a bare vector; rows stored as F_p digits
    m = data.draw(st.integers(1, 2), label="m")
    base_field = make_field(p, r)
    e = data.draw(st.integers(1, 2), label="e")
    points = [_drawn_point(data, m, base_field, e)
              for _ in range(data.draw(st.integers(1, 3), label="points"))]
    degrees = tuple(data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4),
                              label="degrees"))
    if wide:
        degrees += (300 if m == 1 else 22,)
    kernel = jet_space_map(degrees, points).kernel
    assert kernel.dtype is (np.float64 if wide else np.float32)
    assert all(b.dtype == np.min_scalar_type(p - 1) for b in kernel.blocks)
    assert stored_nbytes(kernel) == sum(b.size for b in kernel.blocks) * (1 if p < 257 else 2)
    dense = _dense_rows(degrees, points)
    assert (sum(b.shape[0] for b in kernel.blocks), kernel.spans[-1][1]) == dense.shape
    batch = data.draw(st.sampled_from((1, 7)), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 30), label="seed"))
    slots = rng.integers(0, p, size=(batch, dense.shape[1]), dtype=np.min_scalar_type(p - 1))
    want = ((slots.astype(np.int64) @ dense.T) % p).reshape(batch, len(degrees), -1)
    assert np.array_equal(kernel.apply(slots), want)
    assert np.array_equal(kernel.apply(slots[0]), want[0])


def test_jet_kernel_refuses_points_of_two_residue_fields():
    # one kernel stacks equally many rows per point; F_4 and F_8 points
    # would give forms of 3 * 2 and 3 * 3 rows
    pts = closed_points_up_to(1, 2, 3)
    mixed = [next(P for P in pts if P.degree == e) for e in (2, 3)]
    with pytest.raises(ValueError, match="one residue field"):
        jet_space_map((2, 3), mixed)
    with pytest.raises(ValueError, match="one residue field"):
        jet_at(np.zeros(7, dtype=np.int64), PointBlock((2, 3), tuple(mixed)))


@pytest.mark.parametrize("q,m,e", [(2, 2, 1), (4, 1, 2), (9, 2, 1), (5, 1, 2), (7, 2, 1)])
def test_jet_space_map_is_zero_off_each_forms_block(q, m, e):
    # each form's block is (m+1) n_res rows against its own columns and is
    # nonzero; through the kernel, one form's slots move only its own jets
    p, r = {2: (2, 1), 4: (2, 2), 9: (3, 2), 5: (5, 1), 7: (7, 1)}[q]
    degrees = (1, 3, p + 1, 6)
    widths = [dim_space(m, d) * r for d in degrees]
    pts = [P for P in closed_points_up_to(m, q, e) if P.degree == e][:6]
    for P in pts:
        jm = jet_space_map(degrees, (P,))
        height = (m + 1) * P.field.n
        assert [b.shape for b in jm.kernel.blocks] == [(height, w) for w in widths]
        assert all(b.any() for b in jm.kernel.blocks)
        assert (jm.rows, jm.cols) == (len(degrees) * height, sum(widths))
    kernel = jet_space_map(degrees, pts).kernel
    rng = np.random.default_rng(q * 10 + m)
    col = 0
    for f, w in enumerate(widths):
        slots = np.zeros((5, sum(widths)), dtype=np.int64)
        slots[:, col:col + w] = rng.integers(1, p, size=(5, w))
        col += w
        coords = kernel.apply(slots)
        assert not np.delete(coords, f, axis=1).any()
        assert coords[:, f].any()


def test_jet_space_map_block_has_the_shape_the_tracer_reads():
    # bench/tracing.py counts a call's rows * cols joint cells and its rows
    # per point degree from the returned block alone
    pts = tuple(P for P in closed_points_up_to(2, 4, 2) if P.degree == 2)[:5]
    block = jet_space_map(section_degrees(2, 1), pts)
    assert type(block.rows) is int and type(block.cols) is int
    # 5 points x 4 forms x 3 entries x F_16's 4 coordinates
    kernel = block.kernel
    assert (block.rows, block.cols) == (5 * 4 * 3 * 4, 112)
    assert sum(b.shape[0] for b in kernel.blocks) == block.rows
    assert kernel.spans[-1][1] == block.cols
    assert block.point.degree == 2


def test_jet_at_rejects_a_slot_vector_of_other_forms():
    P = closed_points_up_to(1, 5, 1)[0]
    block = PointBlock((4,), (P,))  # 5 slots
    # the batch has as many rows as the block has slots, but rows of 4
    for slots in (np.zeros(4, dtype=np.int64), np.zeros((5, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="does not fit"):
            jet_at(slots, block)


@pytest.mark.parametrize("kind", ["kept", "unkept"])
def test_jet_at_takes_a_batch_of_slot_vectors(kind):
    # a batch on the last axis gives the jets of row-by-row calls, for a
    # kept kernel and a kernel built for each call
    pts = tuple(P for P in closed_points_up_to(2, 4, 2) if P.degree == 2)[:5]
    degrees = section_degrees(2, 1)
    kernel = {"kept": jet_space_map(degrees, pts).kernel, "unkept": None}[kind]
    block = PointBlock(degrees, pts, kernel)
    slots = np.random.default_rng(3).integers(0, 2, size=(6, block.cols))
    batch = jet_at(slots, block)
    assert batch.shape == (6, 5, 4, 3)  # element indices of F_16
    assert np.array_equal(batch, np.stack([jet_at(row, block) for row in slots]))
    assert np.array_equal(jet_at(slots.reshape(2, 3, -1), block),
                          batch.reshape(2, 3, 5, 4, 3))
    full = jet_at(slots, jet_space_map(degrees, pts))
    assert np.array_equal(batch, full)
    # an empty batch gives no jets, in the shape of a batch
    empty = jet_at(slots[:0], block)
    assert (empty.shape, empty.dtype) == ((0, 5, 4, 3), np.int64)


@pytest.mark.parametrize("m,q,r", [(1, 2, 4), (1, 3, 3), (2, 5, 2)])
def test_jet_at_indices_are_the_digits_times_the_place_values(m, q, r):
    # blocks over F_p, F_{p^2}, F_{p^3} and F_16: the index conversion (the
    # digit itself over F_p, a Horner sum past it) against digits @ place
    p = prime_power(q)[0]
    degrees = section_degrees(p, 1)
    rng = np.random.default_rng(q)
    fields = set()
    for block in scan_blocks(m, q, r, degrees):
        kernel = block.kernel or jet_space_map(degrees, block.points).kernel
        slots = rng.integers(0, p, size=(3, block.cols))
        shape = (len(degrees), len(block.points), m + 1, block.field.n)
        digits = np.moveaxis(kernel.apply(slots).reshape((3,) + shape), -4, -3)
        got = jet_at(slots, block)
        assert got.dtype == np.int64
        assert np.array_equal(got, digits @ block.field.place)
        assert np.array_equal(jet_at(slots[0], block), got[0])
        fields.add(block.field.size)
    assert fields == {q ** e for e in range(1, r + 1)}


def test_scan_blocks_keep_rows_within_the_budget(monkeypatch, fresh_memo):
    # at k = 1 both degrees' kernels fit: 21 x 6 rows x 112 slots and
    # 126 x 12 rows x 112 slots, each form's rows against its own slots
    # only, stored as F_2 digits of one byte
    kernels = [b.kernel for b in scan_blocks(2, 4, 2, section_degrees(2, 1))]
    assert [stored_nbytes(k) for k in kernels] == [21 * 6 * 112, 126 * 12 * 112]
    degrees = section_degrees(2, 2)
    blocks = scan_blocks(2, 4, 2, degrees)
    # a degree-2 point has 12 rows x 340 slots x 4 bytes in the float32
    # product: 64 of them fit the budget, so the 126 points make blocks of
    # 64 and 62
    assert blocks[1].point_nbytes == 12 * 340 * 4
    assert 64 * blocks[1].point_nbytes <= base._ROW_BUDGET < 65 * blocks[1].point_nbytes
    assert [(b.point.degree, len(b.points)) for b in blocks] == [(1, 21), (2, 64), (2, 62)]
    # the memo counts the bytes it stores, one per digit: all three
    # kernels fit the budget together
    assert [stored_nbytes(b.kernel) for b in blocks] == [21 * 6 * 340, 64 * 12 * 340,
                                                         62 * 12 * 340]
    assert sum(stored_nbytes(b.kernel) for b in blocks) <= base._ROW_BUDGET
    # at k = 3, blocks of 31 degree-2 points, all kept: the budget holds
    # per point degree, so degree 2's kernels fit it while both degrees'
    # pass it
    wide = scan_blocks(2, 4, 2, section_degrees(2, 3))
    assert [len(b.points) for b in wide] == [21, 31, 31, 31, 31, 2]
    assert all(b.kernel is not None for b in wide)
    assert all(stored_nbytes(b.kernel) == b.kernel_nbytes for b in wide)
    assert sum(b.kernel_nbytes for b in wide[1:]) <= base._ROW_BUDGET
    assert sum(b.kernel_nbytes for b in wide) > base._ROW_BUDGET
    # at k = 4, blocks of 18 degree-2 points: the fifth fits the budget
    # alone but not beside its degree's four kept ones, nor do the last two
    wider = scan_blocks(2, 4, 2, section_degrees(2, 4))
    assert [len(b.points) for b in wider] == [21] + [18] * 7
    assert [b.kernel is None for b in wider] == [False] * 5 + [True] * 3
    kept = [stored_nbytes(b.kernel) for b in wider[1:5]]
    assert kept == [b.kernel_nbytes for b in wider[1:5]]
    assert sum(kept) <= base._ROW_BUDGET < sum(kept) + wider[5].kernel_nbytes
    assert wider[5].kernel_nbytes <= 18 * wider[5].point_nbytes <= base._ROW_BUDGET
    # every call reads the memo's blocks
    assert all(a is b for a, b in zip(scan_blocks(2, 4, 2, degrees), blocks, strict=True))
    monkeypatch.setattr(base, "_ROW_BUDGET", 0)
    fresh_memo()
    zero = scan_blocks(2, 4, 2, degrees)
    assert all(b.kernel is None and len(b.points) == 1 for b in zero)
    assert len(zero) == 21 + 126


@pytest.mark.parametrize("m,q,r,k", [(2, 4, 2, 4), (2, 4, 2, 1), (2, 3, 1, 18), (1, 5, 3, 36),
                                     (1, 2, 4, 40)])
@pytest.mark.parametrize("budget", [None, 0, 200_000])
def test_scan_blocks_list_the_closed_points_in_order(m, q, r, k, budget, monkeypatch,
                                                      fresh_memo):
    # blocks cut each degree's points in listing order, each within the
    # budget unless it holds one point, and each degree's kept kernels
    # within it too
    p, _ = prime_power(q)
    if budget is not None:
        monkeypatch.setattr(base, "_ROW_BUDGET", budget)
    blocks = scan_blocks(m, q, r, section_degrees(p, k))
    points = [P for b in blocks for P in b.points]
    assert points == closed_points_up_to(m, q, r)
    assert all(len({P.degree for P in b.points}) == 1 for b in blocks)
    assert all(len(b.points) == 1 or len(b.points) * b.point_nbytes <= base._ROW_BUDGET
               for b in blocks)
    assert all(b.kernel is None or stored_nbytes(b.kernel) == b.kernel_nbytes for b in blocks)
    for e in range(1, r + 1):
        assert sum(stored_nbytes(b.kernel) for b in blocks
                   if b.kernel is not None and b.point.degree == e) <= base._ROW_BUDGET
    # a block is cut short only where its degree's points run out
    for b, nxt in itertools.pairwise(blocks):
        if nxt.point.degree == b.point.degree:
            assert (len(b.points) + 1) * b.point_nbytes > base._ROW_BUDGET


def test_scan_blocks_share_each_degree_across_r(fresh_memo):
    # one memo entry per point degree: the shape of degree <= r + 1 starts
    # with the very blocks, hence kernels, of the shape of degree <= r
    for m, q, r, degrees in [(2, 2, 1, section_degrees(2, 18)), (1, 5, 2, section_degrees(5, 36)),
                             (2, 4, 1, section_degrees(2, 4))]:
        low = scan_blocks(m, q, r, degrees)
        high = scan_blocks(m, q, r + 1, degrees)
        assert len(high) > len(low)
        assert all(a is b for a, b in zip(low, high))
        assert {P.degree for b in high[len(low):] for P in b.points} == {r + 1}
    assert base._scan_blocks.cache_info().currsize == 2 + 3 + 2


def test_scan_blocks_check_the_cap_on_every_call():
    degrees = section_degrees(5, 1)
    scan_blocks(1, 5, 2, degrees)
    with pytest.raises(FeasibilityError):
        scan_blocks(1, 5, 2, degrees, cap=31)  # 6 + 26 rational points
    assert len(scan_blocks(1, 5, 2, degrees, cap=32)) == 2


def test_float_exactness_guard_boundary():
    assert exact_float_dtype((1 << 53) - 1, 2) is np.float64
    with pytest.raises(FeasibilityError):
        exact_float_dtype(1 << 53, 2)
    assert exact_float_dtype((1 << 37) - 1, 257) is np.float64  # (257 - 1)^2 = 2^16
    with pytest.raises(FeasibilityError):
        exact_float_dtype(1 << 37, 257)


def test_float32_boundary():
    assert exact_float_dtype((1 << 24) - 1, 2) is np.float32
    assert exact_float_dtype(1 << 24, 2) is np.float64
    assert exact_float_dtype(255, 257) is np.float32  # 255 * 2^16 < 2^24
    assert exact_float_dtype(256, 257) is np.float64


def test_float32_product_with_a_24_bit_sum():
    # 254 * 256^2 + 255^2 = 16,711,169: odd and above 2^23, so float32 holds
    # it only because every partial sum stays below 2^24
    p = 257
    rows = np.full((1, 255), p - 1)
    slots = np.full((1, 255), p - 1)
    slots[0, 0] = p - 2
    rows[0, 0] = p - 2
    total = 254 * (p - 1) ** 2 + (p - 2) ** 2
    assert (1 << 23) < total < 1 << 24 and total % 2
    kernel = JetKernel(p, [rows])
    assert kernel.dtype is np.float32
    assert kernel.apply(slots).tolist() == [[[total % p]]]
    assert kernel.apply(slots).dtype == np.uint16  # F_257 digits


def test_kernel_refuses_an_inexact_form_only():
    # digits up to 2^25: 8 columns of one form reach 8 * 2^50 = 2^53, while
    # two forms of 4 columns each sum only 4 products per entry
    p = (1 << 25) + 1
    rows = np.full((1, 8), p - 1)
    with pytest.raises(FeasibilityError):
        JetKernel(p, [rows])
    kernel = JetKernel(p, [rows[:, :4], rows[:, 4:]])
    assert kernel.dtype is np.float64
    slots = np.arange(8) + p - 8
    want = [[int(sum((p - 1) * int(s) for s in half)) % p]
            for half in (slots[:4], slots[4:])]
    assert kernel.apply(slots).tolist() == want


def test_jet_at_rejects_forms_from_other_spaces():
    # a P^2 datum's slots on the one-point block of a point of P^1
    P = closed_points_up_to(1, 9, 1)[3]
    F9 = P.emb.src
    block = jet_space_map(section_degrees(3, 1), (P,))
    with pytest.raises(ValueError, match="does not fit"):
        jet_at(random_weierstrass(2, 1, F9, seed=1).slots(), block)
    # same size, other modulus: slots would be read in the wrong basis
    other = next(FieldCtx(3, 2, (c0, c1, 1)) for c0 in range(3) for c1 in range(3)
                 if (c0, c1, 1) != F9.modulus and is_irreducible((c0, c1, 1), 3))
    with pytest.raises(FieldMismatchError):
        singular_scan(random_weierstrass(1, 1, other, seed=1), 1)


def test_jet_space_map_prime_above_256():
    # the entry 256 needs more than 8 bits: the blocks' dtype follows p
    p = 257
    P = next(P for P in closed_points_up_to(1, p, 1)
             if [c.idx for c in P.coords] == [1, 256])
    degrees = section_degrees(p, 12)
    jm = jet_space_map(degrees, (P,))
    assert all(b.dtype == np.uint16 for b in jm.kernel.blocks)
    assert max(int(b.max()) for b in jm.kernel.blocks) == 256
    rng = np.random.default_rng(257)
    for _ in range(3):
        slots = rng.integers(0, p, size=jm.cols)
        assert _block_entries(jm, slots) == _oracle_entries(degrees, P, slots)


def test_jet_space_map_rank_small_case():
    # 5 + 7 columns against 2 + 2 rows at a rational point: full rank
    F = closed_points_up_to(1, 5, 1)[0]
    jm = jet_space_map((4, 6), (F,))
    assert (jm.rows, jm.cols) == (4, 12)
    assert [b.shape for b in jm.kernel.blocks] == [(2, 5), (2, 7)]
    assert [rank_mod_p(b, 5) for b in jm.kernel.blocks] == [2, 2]


def test_rank_mod_p_basics():
    assert rank_mod_p(np.eye(3, dtype=np.int64), 2) == 3
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert rank_mod_p(m, 5) == 1
    assert rank_mod_p(m, 3) == 1
    assert rank_mod_p(np.zeros((2, 2), dtype=np.int64), 7) == 0
    # rank equals rank of the transpose
    rng = np.random.default_rng(12)
    a = rng.integers(0, 3, size=(7, 11))
    assert rank_mod_p(a, 3) == rank_mod_p(a.T, 3)
