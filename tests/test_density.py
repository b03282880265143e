"""Jet censuses, surjectivity ranks, exact densities and the Monte-Carlo
estimator."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from elldens import base, density, weier
from elldens.base import JetKernel, closed_points_up_to, jet_at, jet_space_map, scan_blocks
from elldens.density import (exact_density, expected_bad_count, jet_census, mc_density,
                             sample_seed, singular_scan, surjectivity_check)
from elldens.errors import FeasibilityError
from elldens.gf import FieldArray, make_field, prime_power
from elldens.linalg import rank_mod_p
from elldens.weier import (delta_vanishes, jets_from_indices, random_weierstrass,
                           section_degrees, singular_jets_closed_form, singular_jets_oracle,
                           total_slots, weierstrass_from_slots, weierstrass_slots)
from support import fiber_scan, stored_nbytes


def test_expected_bad_count_formula():
    assert expected_bad_count(5, 5, 1, 1) == 25
    assert expected_bad_count(2, 2, 1, 1) == 64
    assert expected_bad_count(3, 3, 1, 1) == 81
    assert expected_bad_count(2, 2, 1, 2) == 4 ** 6
    assert expected_bad_count(7, 7, 2, 1) == 7 ** 3


def test_census_small_prime_fields():
    c = jet_census(5, 5, 1, 1, cross_check=True)
    assert (c.total, c.bad) == (625, 25)
    assert c.match
    assert c.bad_fraction == Fraction(1, 25)
    c = jet_census(3, 3, 1, 1, cross_check=True)
    assert (c.total, c.bad) == (729, 81)
    assert c.bad_fraction == Fraction(1, 9)
    c = jet_census(2, 2, 1, 1, cross_check=True)
    assert (c.total, c.bad) == (256, 64)
    assert c.bad_fraction == Fraction(1, 4)


def test_census_extension_field():
    # degree-2 residue field in characteristic 2: 4^8 tuples
    c = jet_census(2, 2, 1, 2)
    assert c.total == 65536
    assert c.bad == 4096
    assert c.bad_fraction == Fraction(1, 16)


def test_census_2_2_2_2_whole_tuple_space():
    # 4^12 = 2^24 tuples at a degree-2 point of P^2 in characteristic 2
    c = jet_census(2, 2, 2, 2)
    assert c.total == 2 ** 24
    assert c.bad == expected_bad_count(2, 2, 2, 2) == 262144
    # warm, a call's peak is the detector's lanes plus a chunk's digits held
    # once, as one int64 array (1 MiB for 2^14 gradient tuples of 8 digits)
    tracemalloc.start()
    try:
        again = jet_census(2, 2, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == c
    assert peak < 3.0e6


def test_census_2_2_2_2_sample_matches_oracle():
    F4 = make_field(2, 2)
    rng = np.random.Generator(np.random.PCG64(2222))
    rows = rng.integers(0, F4.size, size=(2000, 4, 3))
    J = jets_from_indices(F4, rows)
    hit, oracle = singular_jets_closed_form(J), singular_jets_oracle(J)
    assert np.array_equal(hit.mask, oracle.mask)
    assert np.array_equal(hit.x.idx[hit.mask], oracle.x.idx[hit.mask])
    assert np.array_equal(hit.y.idx[hit.mask], oracle.y.idx[hit.mask])
    assert hit.mask.any()


def _lanes_with_digits(J, target) -> np.ndarray:
    """The mask of the lanes of a characteristic-2 batch whose index rows
    are `target`, in the (form, entry) layout of a1, a3, a4, a6."""
    g, m = J.gradients.shape[-2:]
    rows = np.concatenate((np.broadcast_to(J.values[..., None], J.shape + (g, 1)),
                           np.broadcast_to(J.gradients, J.shape + (g, m))), axis=-1)
    return (rows.reshape(J.shape + (-1,)) == target).all(axis=-1)


def test_census_cross_check_memory():
    # warm, the oracle's passes hold their temporaries within one 1 MiB
    # budget together, beside the census's own arrays
    jet_census(5, 5, 2, 1, cross_check=True)
    tracemalloc.start()
    try:
        c = jet_census(5, 5, 2, 1, cross_check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.bad == c.expected_bad
    assert peak <= 2.0e6


def test_census_cross_check_names_the_disagreeing_tuple(monkeypatch):
    # the oracle is made to flip its answer on one tuple, given in the
    # (form, entry) layout: a1 = (1, 0), a3 = (1, 1), a4 = (0, 1), a6 = (0, 0)
    target = (1, 0, 1, 1, 0, 1, 0, 0)
    oracle = density.singular_jets_oracle

    def flipped(J):
        hit = oracle(J)
        return hit._replace(mask=hit.mask ^ _lanes_with_digits(J, target))

    monkeypatch.setattr(density, "singular_jets_oracle", flipped)
    with pytest.raises(AssertionError) as err:
        jet_census(2, 2, 1, 1, cross_check=True)
    msg = str(err.value)
    verdict, digits = msg.split("(")[1].split(")")[0], msg.split("jets ")[1]
    assert digits == str(target)
    rows = np.array(target).reshape(1, 4, 2)
    hit = singular_jets_closed_form(jets_from_indices(make_field(2, 1), rows)).mask
    assert verdict == ("singular" if hit[0] else "smooth")


def test_census_cross_check_compares_witnesses(monkeypatch):
    # the oracle moves the witness of the all-zero tuple, the cusp y^2 = x^3
    # singular at (0, 0), to (1, 0) and keeps every verdict
    target = (0,) * 8
    oracle = density.singular_jets_oracle

    def moved(J):
        hit = oracle(J)
        return hit._replace(x=FieldArray(J.field, hit.x.idx + _lanes_with_digits(J, target)))

    monkeypatch.setattr(density, "singular_jets_oracle", moved)
    with pytest.raises(AssertionError) as err:
        jet_census(2, 2, 1, 1, cross_check=True)
    assert str(err.value) == f"closed form (singular) and fiber scan disagree on jets {target}"


# the first detector call's (V, W) shape per census case
_FIRST_CALL = {
    (5, 5, 2, 1): (25, 625),  # 625 gradient tuples: all 25 value rows (of 26) per call
    (2, 2, 3, 1): (4, 4096),  # 4,096 gradient tuples: 4 value rows per call
    (5, 5, 3, 1): (1, 15625),  # 15,625 gradient tuples: one value row per call
    (2, 2, 4, 1): (1, 16384),  # 65,536 gradient tuples: 4 chunks per value row
    (7, 7, 1, 1): (49, 49), (7, 7, 2, 1): (6, 2401), (3, 9, 1, 1): (22, 729),
    (5, 5, 1, 2): (26, 625),
}


def _detector_shapes(monkeypatch) -> list:
    """The joint shape of every batch the census hands the detector, from
    now on."""
    shapes = []
    detector = density.singular_jets_closed_form

    def counted(J):
        shapes.append(J.shape)
        return detector(J)

    monkeypatch.setattr(density, "singular_jets_closed_form", counted)
    return shapes


@pytest.mark.parametrize("p,q,m,e", list(_FIRST_CALL))
def test_census_block_regimes(monkeypatch, p, q, m, e):
    shapes = _detector_shapes(monkeypatch)
    c = jet_census(p, q, m, e)
    assert c.bad == expected_bad_count(p, q, m, e)
    sizes = [math.prod(s) for s in shapes]
    assert shapes[0] == _FIRST_CALL[p, q, m, e]
    assert max(sizes) <= density._CENSUS_BLOCK
    assert sum(sizes) == c.total


def test_census_takes_one_detector_call_per_block(monkeypatch):
    # the acceptance-1 cases and (2,4,1,1): one call each but for (3,3,2,1),
    # two, and the 2^16-tuple (2,2,1,2) and (2,4,1,1), four each
    calls = _detector_shapes(monkeypatch)
    for case in [(5, 5, 1, 1), (5, 5, 2, 1), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 1, 2),
                 (3, 3, 1, 1), (3, 3, 2, 1), (2, 4, 1, 1)]:
        jet_census(*case)
    assert density._CENSUS_BLOCK == weier._VALUE_TABLE_LIMIT == 1 << 14
    assert len(calls) == 15


def test_census_validates_and_caps():
    with pytest.raises(ValueError):
        jet_census(2, 3, 1, 1)
    with pytest.raises(FeasibilityError):
        jet_census(2, 2, 2, 3)
    with pytest.raises(ValueError, match="need e >= 1, got 0"):
        jet_census(2, 2, 1, 0)


def test_census_checks_the_cap_before_building_the_field(monkeypatch):
    # F_{2^300} would take minutes to find and more memory than any
    # machine has to tabulate; the 2^2400 tuples are refused first
    def refuse(p, n):
        raise AssertionError(f"built F_{p}^{n}")

    monkeypatch.setattr(density, "make_field", refuse)
    with pytest.raises(FeasibilityError, match=r"2\^2400 tuples > cap"):
        jet_census(2, 2, 1, 300)
    # the cap's boundary: 2^16 tuples at (q, m, e) = (2, 1, 2)
    with pytest.raises(FeasibilityError):
        jet_census(2, 2, 1, 2, cap=(1 << 16) - 1)
    monkeypatch.undo()
    assert jet_census(2, 2, 1, 2, cap=1 << 16).total == 1 << 16


def test_census_q_not_prime():
    # q = 4 with e = 1 coincides with q = 2, e = 2
    a = jet_census(2, 4, 1, 1)
    b = jet_census(2, 2, 1, 2)
    assert (a.total, a.bad) == (b.total, b.bad)


@pytest.mark.parametrize("p,q,m,k,e,rank", [
    (5, 5, 1, 12, 1, 4),
    (2, 2, 2, 18, 1, 12),
    (3, 3, 2, 18, 1, 9),
    (2, 4, 1, 6, 1, 16),
    (5, 5, 1, 12, 2, 8),
])
def test_surjectivity_full_rank(p, q, m, k, e, rank):
    r = surjectivity_check(p, q, m, k, e)
    assert r.rank == rank
    assert r.expected_rank == rank
    assert r.full_rank


@pytest.mark.parametrize("p,q,m,k,e,pinned", [
    (5, 5, 1, 12, 1, (4, 4, 122)),
    (2, 2, 2, 18, 1, (12, 12, 10426)),
    (3, 3, 2, 18, 1, (9, 9, 9399)),
    (2, 2, 1, 1, 2, (14, 16, 18)),
    (2, 2, 2, 1, 2, (21, 24, 56)),
    (2, 2, 1, 1, 3, (17, 24, 18)),
    (5, 5, 1, 1, 4, (12, 16, 12)),
])
def test_surjectivity_rank_is_the_dense_joint_rank(p, q, m, k, e, pinned):
    # the sum of the per-form ranks equals the rank of the joint
    # block-diagonal matrix, at full rank and rank-deficient alike
    r = surjectivity_check(p, q, m, k, e)
    assert (r.rank, r.rows, r.cols) == pinned
    P = next(P for P in closed_points_up_to(m, q, e) if P.degree == e)
    blocks = jet_space_map(section_degrees(p, k), (P,)).kernel.blocks
    dense = np.zeros((r.rows, r.cols), dtype=np.int64)
    row = col = 0
    for b in blocks:
        dense[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    assert (row, col) == (r.rows, r.cols)
    assert rank_mod_p(dense, p) == r.rank


def test_surjectivity_fails_when_degree_too_small():
    # k = 1 on P^1 in char 5: sections of degree 4 and 6 cannot hit all
    # jets at a degree-4 point (needs 6k >= (m+1)e, 6 < 8)
    r = surjectivity_check(5, 5, 1, 1, 4)
    assert not r.full_rank


def test_exact_density_values():
    assert exact_density(2, 2, 1) == Fraction(7, 8) ** 7
    assert exact_density(2, 2, 3) == (
        Fraction(7, 8) ** 7 * Fraction(63, 64) ** 7 * Fraction(511, 512) ** 22)
    assert exact_density(5, 1, 1) == Fraction(24, 25) ** 6
    assert float(exact_density(2, 2, 1)) == pytest.approx(0.392735, abs=5e-5)


def test_sample_seed_stable():
    assert sample_seed(0, 0) == sample_seed(0, 0)
    assert sample_seed(0, 0) != sample_seed(0, 1)
    assert sample_seed(1, 0) != sample_seed(0, 0)
    assert 0 <= sample_seed(12345, 67890) < 2 ** 64


@pytest.mark.parametrize("p,q,m,k,r,n", [(2, 2, 2, 18, 1, 120), (3, 3, 1, 6, 1, 50)])
def test_mc_deterministic_and_chunk_invariant(p, q, m, k, r, n, monkeypatch):
    # sample i draws from its own stream: the chunk size does not change the
    # counts
    a = mc_density(p, q, m, k, r, samples=n, master_seed=9)
    b = mc_density(p, q, m, k, r, samples=n, master_seed=9)
    whole = (a.smooth_count, a.delta_zero_count)
    assert (b.smooth_count, b.delta_zero_count) == whole
    for chunk in (1, 7, 512):
        monkeypatch.setattr(density, "_MC_CHUNK", chunk)
        c = mc_density(p, q, m, k, r, samples=n, master_seed=9)
        assert (c.smooth_count, c.delta_zero_count) == whole
    d = mc_density(p, q, m, k, r, samples=n, master_seed=10)
    assert d.smooth_count != a.smooth_count


@pytest.mark.parametrize("p,q,m,k,r", [(2, 2, 2, 18, 1), (5, 5, 1, 36, 3)])
def test_mc_chunks_cut_by_the_byte_budget_give_the_same_report(p, q, m, k, r, monkeypatch):
    # at two golden shapes, a budget of three float32 rows of slots cuts
    # 200 samples into chunks of at most three (the last one short), each
    # sample still seeded by one sample_seed call in index order
    want = mc_density(p, q, m, k, r, samples=200, master_seed=7)
    cols = total_slots(m, k, make_field(*prime_power(q)))
    monkeypatch.setattr(density, "_MC_BUDGET", 3 * 4 * cols)
    chunks, seeds = [], []
    rows, seed = density.weierstrass_slot_rows, density.sample_seed

    def drawn(p, cols, seeds, out):
        chunks.append(len(seeds))
        return rows(p, cols, seeds, out)

    def counted(master_seed, index):
        seeds.append(index)
        return seed(master_seed, index)

    monkeypatch.setattr(density, "weierstrass_slot_rows", drawn)
    monkeypatch.setattr(density, "sample_seed", counted)
    assert mc_density(p, q, m, k, r, samples=200, master_seed=7) == want
    assert sum(chunks) == 200 and 1 < max(chunks) <= 3 and chunks[-1] < 3
    assert seeds == list(range(200))


def test_mc_against_exact_moderate_config():
    rep = mc_density(5, 5, 1, 12, r=1, samples=600, master_seed=2)
    ex = float(rep.exact)
    assert rep.exact == Fraction(24, 25) ** 6
    assert abs(rep.estimate - ex) <= 4 * rep.std_error
    assert rep.std_error == pytest.approx(
        math.sqrt(rep.estimate * (1 - rep.estimate) / 600))
    assert not rep.threshold_warning


def test_mc_threshold_warning():
    rep = mc_density(5, 5, 1, 6, r=1, samples=20, master_seed=1)
    assert rep.threshold_warning  # k=6 < (6m+6)r = 12
    rep2 = mc_density(5, 5, 1, 12, r=1, samples=20, master_seed=1)
    assert not rep2.threshold_warning


def test_mc_validates():
    with pytest.raises(ValueError):
        mc_density(2, 3, 1, 6, r=1, samples=10, master_seed=0)
    with pytest.raises(ValueError):
        mc_density(2, 2, 1, 6, r=1, samples=0, master_seed=0)


@pytest.mark.parametrize("p,q,m,k,r", [(2, 2, 2, 18, 1), (3, 9, 1, 4, 1)])
def test_mc_rows_are_the_per_sample_draws(p, q, m, k, r, monkeypatch):
    # every sample's slots are what weierstrass_slots draws from its seed,
    # across chunk boundaries, so one sample replays alone
    monkeypatch.setattr(density, "_MC_CHUNK", 7)
    drawn = []
    rows = density.weierstrass_slot_rows

    def record(p, cols, seeds, out):
        drawn.extend(rows(p, cols, seeds, out).copy())
        return out

    monkeypatch.setattr(density, "weierstrass_slot_rows", record)
    mc_density(p, q, m, k, r, samples=16, master_seed=5)
    F = make_field(*prime_power(q))
    assert len(drawn) == 16
    for i, row in enumerate(drawn):
        assert (row == weierstrass_slots(m, k, F, sample_seed(5, i))).all()


def test_mc_calls_sample_seed_once_per_sample_in_order(monkeypatch):
    # the traced benchmark counts sample_seed calls: each sample's seed
    # comes from one call, made through the module attribute
    monkeypatch.setattr(density, "_MC_CHUNK", 7)
    calls = []
    seed = density.sample_seed

    def counted(master_seed, index):
        calls.append((master_seed, index))
        return seed(master_seed, index)

    monkeypatch.setattr(density, "sample_seed", counted)
    mc_density(3, 3, 1, 6, 1, samples=20, master_seed=4)
    assert calls == [(4, i) for i in range(20)]


def _vanishing(blocks, slots):
    """The rows of `slots` whose discriminant values vanish at every point of
    the blocks, as Monte-Carlo's pass over the blocks leaves them."""
    live = np.arange(len(slots))
    for b in blocks:
        live = live[delta_vanishes(
            jets_from_indices(b.field, jet_at(slots[live], b))).all(axis=1)]
    return live


def test_mc_counts_delta_zero_as_not_smooth():
    # characteristic-2 fixture: a1 = a3 = a4 = 0 makes the discriminant
    # vanish identically while fibers y^2 = x^3 + a6 can look pointwise fine;
    # such draws must land in delta_zero_count, never in smooth_count
    F2 = make_field(2, 1)
    found = None
    for seed in range(4000):
        w = random_weierstrass(1, 2, F2, seed=seed)
        if w.a1.is_zero and w.a3.is_zero and w.delta.is_zero and not w.a6.is_zero:
            found = seed
            break
    assert found is not None, "no degenerate draw in the sweep"
    # pin one and replay it through the estimator machinery
    from elldens.weier import weierstrass_slots
    degrees = section_degrees(2, 2)
    blocks = scan_blocks(1, 2, 1, degrees)
    assert all(b.kernel is not None for b in blocks)  # kept under the default budget
    slots = weierstrass_slots(1, 2, F2, seed=found)[None]
    # each form's jet rows at each point times that form's own slots
    per_point = [jet_space_map(degrees, (P,)).kernel.blocks for P in closed_points_up_to(1, 2, 1)]
    cuts = np.cumsum([b.shape[1] for b in per_point[0]])
    forms = np.split(slots[0].astype(np.int64), cuts[:-1])
    want = np.concatenate([(b.astype(np.int64) @ s) % 2
                           for maps in per_point for b, s in zip(maps, forms)])[None]
    coords = [jet_at(slots, b) for b in blocks]
    assert np.array_equal(np.concatenate([c.reshape(1, -1) for c in coords], axis=1), want)
    assert _vanishing(blocks, slots).tolist() == [0]
    assert density._delta_zero(blocks, slots, np.arange(1), 2, 1).tolist() == [True]
    # end to end: Monte-Carlo draw 76 of master seed 7 at (p, q, m, k, r) =
    # (2, 2, 1, 1, 1) has delta == 0 and passes the detector at every
    # degree-1 point, and is counted in delta_zero_count only
    rng = np.random.Generator(np.random.PCG64(sample_seed(7, 76)))
    w = weierstrass_from_slots(1, 1, F2, rng.integers(0, 2, size=18, dtype=np.uint8))
    assert w.delta.is_zero and singular_scan(w, 1) == []
    before, after = (mc_density(2, 2, 1, 1, 1, samples=n, master_seed=7) for n in (76, 77))
    assert after.smooth_count == before.smooth_count
    assert after.delta_zero_count == before.delta_zero_count + 1


def test_delta_zero_batch_matches_exact_expansion(monkeypatch):
    # k = 1, r = 1 in characteristic 2: the degree-1 values often fail to
    # settle a draw, so rows reach the degree-2/3 probe and the exact expansion
    from elldens.weier import weierstrass_from_slots, weierstrass_slots
    F2 = make_field(2, 1)
    blocks = scan_blocks(1, 2, 1, section_degrees(2, 1))
    assert all(b.kernel is not None for b in blocks)  # kept under the default budget
    slots = np.array([weierstrass_slots(1, 1, F2, seed=s) for s in range(400)])
    want = [weierstrass_from_slots(1, 1, F2, row).delta.is_zero for row in slots]
    expanded = []
    monkeypatch.setattr(density, "weierstrass_from_slots",
                        lambda *args: expanded.append(args) or weierstrass_from_slots(*args))
    assert density._delta_zero(blocks, slots, _vanishing(blocks, slots), 1, 1).tolist() == want
    # the probe settles every draw but the truly degenerate ones
    assert len(expanded) == sum(want) > 0


def _record_blocks(monkeypatch):
    """The blocks that the jet_at calls of Monte-Carlo and scans take, in
    call order."""
    used = []
    monkeypatch.setattr(density, "jet_at",
                        lambda slots, block: used.append(block) or jet_at(slots, block))
    return used


def test_mc_setup_holds_only_jet_rows(monkeypatch):
    # acceptance-4 configuration: the 7 degree-1 points need 7 * 4 * 3 rows
    used = _record_blocks(monkeypatch)
    mc_density(2, 2, 2, 18, 1, samples=1, master_seed=0)
    [block] = scan_blocks(2, 2, 1, section_degrees(2, 18))
    assert block.kernel is not None  # kept under the default budget
    assert used == [block]  # the shared memo's block, and no probe block
    kernel = block.kernel
    assert (sum(b.shape[0] for b in kernel.blocks), kernel.spans[-1][1]) == (84, 10426)
    assert (len(block.points), block.cols) == (7, 10426)
    # each of the 4 forms' 21 rows meets only its own slots, stored as
    # one-byte F_2 digits and multiplied in float32
    assert block.kernel.dtype is np.float32
    assert all(b.dtype == np.uint8 for b in block.kernel.blocks)
    assert stored_nbytes(block.kernel) == 21 * 10426


def test_mc_stops_a_chunk_once_every_sample_is_settled(monkeypatch):
    # one sample at r = 3 (no probe degree is left): a draw singular at a
    # degree-1 point whose discriminant is nonzero there is settled by the
    # first block, and the chunk reads no further block; the counts still
    # agree with the datum's own scan and discriminant
    F2 = make_field(2, 1)
    blocks = scan_blocks(1, 2, 3, section_degrees(2, 1))
    assert len(blocks) == 3  # one per point degree
    used = _record_blocks(monkeypatch)
    stopped = 0
    for seed in range(12):
        used.clear()
        rep = mc_density(2, 2, 1, 1, 3, samples=1, master_seed=seed)
        assert used == list(blocks[:len(used)])
        stopped += len(used) < len(blocks)
        w = weierstrass_from_slots(1, 1, F2, weierstrass_slots(1, 1, F2, sample_seed(seed, 0)))
        assert rep.delta_zero_count == w.delta.is_zero
        assert rep.smooth_count == (not w.delta.is_zero and singular_scan(w, 3) == [])
    assert 0 < stopped < 12


def test_mc_takes_products_only_for_live_rows(monkeypatch):
    # at (5, 5, 1, 36, 3) draws settle along the way (singular at a point):
    # later blocks' products take only the rows still live, and the counts
    # are the golden file's, recorded with whole-chunk products
    rows = []
    monkeypatch.setattr(density, "jet_at",
                        lambda slots, block: rows.append(len(slots)) or jet_at(slots, block))
    rep = mc_density(5, 5, 1, 36, 3, samples=200, master_seed=7)
    assert (rep.smooth_count, rep.delta_zero_count) == (149, 0)
    blocks = scan_blocks(1, 5, 3, section_degrees(5, 36))
    assert len(rows) == len(blocks) and rows[0] == 200
    assert sum(rows) < 200 * len(blocks)
    # with Delta-zero draws in the mix, the counts are each datum's own
    F2 = make_field(2, 1)
    rows.clear()
    rep = mc_density(2, 2, 1, 1, 3, samples=64, master_seed=2)
    assert sum(rows) < 64 * len(scan_blocks(1, 2, 3, section_degrees(2, 1)))
    data = [weierstrass_from_slots(1, 1, F2, weierstrass_slots(1, 1, F2, sample_seed(2, i)))
            for i in range(64)]
    assert rep.delta_zero_count == sum(w.delta.is_zero for w in data) > 0
    assert rep.smooth_count == sum(not w.delta.is_zero and singular_scan(w, 3) == []
                                   for w in data)


def test_probe_reads_the_scan_memo(monkeypatch, fresh_memo):
    # at (p, q, m, k, r) = (2, 2, 1, 1, 1) draws reach the probe at degrees
    # 2 and 3; its blocks are the memo's degree-e entries, kernels kept, so
    # a second run builds no kernel
    cfg, degrees = (2, 2, 1, 1, 1), section_degrees(2, 1)
    used = _record_blocks(monkeypatch)
    want = mc_density(*cfg, samples=200, master_seed=0)
    probes = [b for b in used if b.point.degree > 1]
    assert {b.point.degree for b in probes} == {2, 3}
    for b in probes:
        e = b.point.degree
        assert any(b is c for c in scan_blocks(1, 2, e, degrees) if c.point.degree == e)
        assert b.kernel is not None
    built = []
    for module in (base, density):
        monkeypatch.setattr(module, "jet_space_map", lambda degs, pts: built.append(pts) or
                            jet_space_map(degs, pts))
    used.clear()
    got = mc_density(*cfg, samples=200, master_seed=0)
    assert [b for b in used if b.point.degree > 1] == probes
    assert built == []
    assert (got.smooth_count, got.delta_zero_count) == (want.smooth_count,
                                                        want.delta_zero_count)


def test_mc_builds_each_jet_map_once(monkeypatch, fresh_memo):
    # mc_ref's configuration: the probe at degree 2 reads the memo's
    # degree-1 entry that the run applied, so each of the 7 degree-1 and 7
    # degree-2 points is in one jet map, and the memo has one entry per degree
    calls = []
    for module in (base, density):
        monkeypatch.setattr(module, "jet_space_map", lambda degrees, pts: calls.append(pts)
                            or jet_space_map(degrees, pts))
    mc_density(2, 2, 2, 18, 1, samples=256, master_seed=7)
    points = [P for pts in calls for P in pts]
    assert len(points) == len(set(points)) == 14
    assert [P.degree for P in points] == [1] * 7 + [2] * 7
    assert base._scan_blocks.cache_info().currsize == 2


def test_probe_over_cap_is_skipped_and_expansion_decides():
    # the degree-2 points of P^1 over F_257 pass the probe cap; a zero datum
    # vanishes at every degree-1 point and is settled by the expansion
    degrees = section_degrees(257, 1)
    with pytest.raises(FeasibilityError):
        scan_blocks(1, 257, 2, degrees, cap=density._PROBE_CAP)
    blocks = scan_blocks(1, 257, 1, degrees)
    assert all(b.kernel is not None for b in blocks)  # kept under the default budget
    slots = np.zeros((2, blocks[0].cols), dtype=np.uint16)
    slots[1, -1] = 1  # a6 = x1^6: delta = -432 x1^12, nonzero at (0:1)
    live = _vanishing(blocks, slots)
    assert live.tolist() == [0]
    assert density._delta_zero(blocks, slots, live, 1, 1).tolist() == [True, False]


def test_mc_keeps_every_kernel_past_the_scan_budget(monkeypatch, fresh_memo):
    # with no byte budget, every block holds one point and Monte-Carlo
    # still applies a kernel at each, built once for the call and reused by
    # both chunks, and gives the same counts; the memo's entries, one per
    # point degree, keep none of them after the call
    cfg, degrees = (2, 4, 1, 6, 2), section_degrees(2, 6)
    want = mc_density(*cfg, samples=600, master_seed=3)
    fresh_memo()
    monkeypatch.setattr(base, "_ROW_BUDGET", 0)
    used = _record_blocks(monkeypatch)
    got = mc_density(*cfg, samples=600, master_seed=3)
    assert (got.smooth_count, got.delta_zero_count) == (want.smooth_count,
                                                        want.delta_zero_count)
    blocks = [b for b in used if b.point.degree <= 2]
    points = closed_points_up_to(1, 4, 2)  # 5 of degree 1, 6 of degree 2
    assert len(blocks) == 2 * len(points) == 2 * 11
    assert all(b.kernel is not None for b in blocks)
    assert blocks[:11] == blocks[11:]  # the same blocks, hence kernels, per chunk
    assert [b.points for b in blocks[:11]] == [(P,) for P in points]
    assert base._scan_blocks.cache_info().currsize == 2
    assert all(b.kernel is None for b in scan_blocks(1, 4, 2, degrees))
    assert base._scan_blocks.cache_info().currsize == 2


def test_mc_leaves_no_kernel_past_the_budget_in_the_memo(fresh_memo):
    # the 13 degree-1 points of P^2 over F_3 at k = 31 pass the byte budget
    # together, as stored digits too: they make four blocks of 3 points,
    # kept, and one of 1, built by Monte-Carlo for its own call and not
    # kept by the memo
    mc_density(3, 3, 2, 31, 1, samples=20, master_seed=0)
    blocks = scan_blocks(2, 3, 1, section_degrees(3, 31))
    assert [len(b.points) for b in blocks] == [3, 3, 3, 3, 1]
    size = blocks[0].point_nbytes  # float32 product bytes of a point
    assert 3 * size <= base._ROW_BUDGET < 4 * size
    assert all(b.kernel is not None and stored_nbytes(b.kernel) == 3 * size // 4
               for b in blocks[:4])
    assert 12 * size // 4 <= base._ROW_BUDGET < 13 * size // 4
    assert blocks[4].kernel is None
    assert base._scan_blocks.cache_info().currsize == 1


def _kernel_nbytes(block):
    """Bytes of the kernel that jet_at applies at a block."""
    if block.kernel is not None:
        return stored_nbytes(block.kernel)
    return len(block.points) * block.point_nbytes


@pytest.mark.parametrize("budget", [None, 100_000])
def test_jet_at_takes_blocks_within_the_budget(budget, monkeypatch, fresh_memo):
    # a scan of (q, m, k, r) = (4, 2, 4, 2) data and Monte-Carlo runs whose
    # degrees split into several blocks: every product's kernel fits the
    # budget unless its block holds one point
    if budget is not None:
        monkeypatch.setattr(base, "_ROW_BUDGET", budget)
    used = _record_blocks(monkeypatch)
    singular_scan(random_weierstrass(2, 4, make_field(2, 2), seed=0), 2)
    mc_density(3, 3, 2, 18, 1, samples=20, master_seed=0)
    mc_density(2, 4, 1, 6, 2, samples=100, master_seed=0)
    # more blocks than degrees: the scan's degree 2 and the first run's
    # degree 1 split
    assert len(used) > 2 + 1 + 2
    assert all(len(b.points) == 1 or _kernel_nbytes(b) <= base._ROW_BUDGET for b in used)


def test_scan_witnesses_do_not_depend_on_the_budget(monkeypatch, fresh_memo):
    # seeded (q, m, k, r) = (4, 2, 4, 2) data, with witnesses of degree 1 and
    # 2 in several blocks: the default budget's blocks of 18 degree-2 points
    # and budget 0's one-point blocks find the same witnesses, in order
    F4 = make_field(2, 2)
    data = [random_weierstrass(2, 4, F4, seed=s) for s in (17, 204, 338, 391)]

    def witnesses():
        return [(h.point, h.x, h.y) for w in data for h in singular_scan(w, 2)]

    want = witnesses()
    assert [P.degree for P, _, _ in want] == [1, 1, 1, 1, 1, 2, 2, 2, 1, 2, 2]
    blocks = scan_blocks(2, 4, 2, section_degrees(2, 4))
    assert [len(b.points) for b in blocks] == [21] + [18] * 7
    monkeypatch.setattr(base, "_ROW_BUDGET", 0)
    fresh_memo()
    assert witnesses() == want
    assert all(len(b.points) == 1 for b in scan_blocks(2, 4, 2, section_degrees(2, 4)))


@pytest.mark.parametrize("cfg,samples", [((11, 11, 3, 1, 1), 20),
                                         ((257, 257, 1, 1, 1), 4)])
def test_mc_density_enumerates_only_degree_r(cfg, samples):
    # the probe degrees' points (2.4e9 rational points of P^3 over F_{11^3},
    # 17M of P^1 over F_{257^3}) are never enumerated up front
    rep = mc_density(*cfg, samples=samples, master_seed=0)
    assert rep.smooth_count + rep.delta_zero_count <= samples
    assert rep.smooth_count > 0


def test_singular_scan_frozen_seeds():
    F5 = make_field(5, 1)
    w = random_weierstrass(1, 1, F5, seed=13)
    hits = singular_scan(w, 2)
    assert len(hits) == 1
    assert hits[0].point.degree == 1 and hits[0].point.chart == 0
    w = random_weierstrass(1, 1, F5, seed=23)
    hits = singular_scan(w, 2)
    assert [h.point.degree for h in hits] == [2]
    assert singular_scan(random_weierstrass(1, 1, F5, seed=0), 2) == []


@pytest.mark.parametrize("q,m,k,r,seed", [
    (4, 2, 4, 2, 7), (4, 2, 4, 2, 0), (2, 2, 9, 2, 4), (2, 2, 9, 2, 0),
    (5, 1, 1, 2, 13), (5, 1, 1, 2, 23), (2, 2, 1, 1, 1), (3, 2, 1, 1, 8),
])
def test_singular_scan_matches_oracle_point_by_point(q, m, k, r, seed):
    # the batched scan against the exhaustive fiber scan at every point; the
    # seeds give witnesses at degree 1 ((4,2,4,2) seed 7, (2,2,1,1), (3,2,1,1),
    # (5,1,1,2) seed 13), at degree 2 ((2,2,9,2) seed 4, (5,1,1,2) seed 23)
    # and none ((4,2,4,2) and (2,2,9,2) seed 0)
    # the oracle scans each point's lane of its block's one jet product
    p, n = prime_power(q)
    w = random_weierstrass(m, k, make_field(p, n), seed=seed)
    degrees = section_degrees(p, k)
    scan = {h.point: h for h in singular_scan(w, r)}
    blocks = scan_blocks(m, q, r, degrees)
    assert [P for b in blocks for P in b.points] == closed_points_up_to(m, q, r)
    for b in blocks:
        want = singular_jets_oracle(jets_from_indices(b.field, jet_at(w.slots(), b)))
        assert want.mask.shape == (len(b.points),)
        for i, P in enumerate(b.points):
            got = scan.pop(P, None)
            assert (got is None) == (not want.mask[i]), P
            if got is not None:
                assert (got.x, got.y) == (want.x[i], want.y[i])
                # and the jets of the point's own one-point block
                [row] = jet_at(w.slots(), jet_space_map(degrees, (P,)))
                assert np.array_equal(got.jets.values, row[:, 0])
                assert np.array_equal(got.jets.gradients, row[:, 1:])
    assert not scan


@pytest.mark.parametrize("p,m,r", [(p, m, r) for p in (2, 3, 5) for m, r in ((1, 2), (2, 1))])
def test_scan_witnesses_hold_what_the_benchmark_reads(p, m, r):
    # the acceptance-5 scans, seeds 0-19: the benchmark re-verifies each
    # witness by jacobian_vanishes(h.jets, h.x, h.y) and records h.x.idx,
    # h.y.idx and the point's coordinates, degree and chart as ints; the
    # scalar fiber scan of the witness's own index rows finds its (x, y)
    F = make_field(p, 1)
    hits = 0
    for seed in range(20):
        for h in singular_scan(random_weierstrass(m, 1, F, seed=seed), r):
            hits += 1
            assert weier.jacobian_vanishes(h.jets, h.x, h.y) is True
            assert type(h.x.idx) is int and type(h.y.idx) is int
            assert all(type(c.idx) is int for c in h.point.coords)
            assert type(h.point.degree) is int and type(h.point.chart) is int
            row = np.concatenate((h.jets.values[:, None], h.jets.gradients), axis=1)
            assert fiber_scan(h.point.field, row) == (h.x, h.y)
    assert hits


def test_coords_refuses_an_inexact_product():
    # 8 slots of digits up to 2^25 reach 8 * 2^50 = 2^53; 7 stay below it
    p = (1 << 25) + 1
    rows = np.full((2, 8), p - 1, dtype=np.int64)
    slots = np.full((1, 8), p - 1, dtype=np.int64)
    with pytest.raises(FeasibilityError):
        JetKernel(p, [rows])
    kernel = JetKernel(p, [rows[:, :7]])
    assert kernel.apply(slots[:, :7]).tolist() == [[[7 * (p - 1) ** 2 % p] * 2]]

