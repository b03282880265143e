"""Top-level acceptance checks.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts the same condition, so the suite both reports and enforces.
Tolerances: criteria 1, 2 (Moebius/orbit parts), 3, 5 and 6 are exact;
criterion 2's truncated product must sit within 1e-4 of the closed form;
criterion 4 uses three binomial standard errors.
"""
import random
from fractions import Fraction

import numpy as np

from elldens.base import closed_points_up_to, jet_at, scan_blocks
from elldens.density import jet_census, mc_density, singular_scan, surjectivity_check
from elldens.gf import make_field
from elldens.sections import Section
from elldens.weier import (WeierstrassData, infinity_partial, jets_from_indices,
                           minimality_witness, random_weierstrass, section_degrees,
                           singular_jets_closed_form, singular_jets_oracle)
from elldens.zeta import (zeta_inverse_exact_Pm, zeta_inverse_truncated,
                          zeta_inverse_truncated_float, zeta_table)
from support import monomial


def _report(cid: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {cid} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {cid} failed: {desc}"


def test_acceptance_1_jet_census_exact():
    cases = [(5, 1, 1), (5, 2, 1), (2, 1, 1), (2, 2, 1),
             (2, 1, 2), (3, 1, 1), (3, 2, 1)]
    ok = True
    detail = []
    for (p, m, e) in cases:
        c = jet_census(p, p, m, e)
        frac_ok = c.bad_fraction == Fraction(1, p ** ((m + 1) * e))
        count_ok = c.bad == c.expected_bad
        ok = ok and frac_ok and count_ok
        detail.append(f"({p},{m},{e}):{c.bad}/{c.total}")
    _report(1, "jet census exact counts " + " ".join(detail), ok)


def test_acceptance_2_zeta_convergence():
    t = zeta_table(2, 2, 16)
    # exact rationals carry the product to r = 8; the reduced denominator has
    # ~10^10 bits by r = 16, so that endpoint runs on the float route, which
    # is pinned against the exact one on its shared range first
    for r in (1, 4, 8):
        agree = abs(float(zeta_inverse_truncated(t, 3, r))
                    - zeta_inverse_truncated_float(t, 3, r)) < 1e-12
        assert agree
    trunc = zeta_inverse_truncated_float(t, 3, 16)
    exact = zeta_inverse_exact_Pm(2, 2, 3)
    close = abs(float(trunc) - float(exact)) < 1e-4 and exact == Fraction(21, 64)
    moebius = all(
        sum(e * t.a[e - 1] for e in range(1, r + 1) if r % e == 0) == t.N[r - 1]
        for r in range(1, 17)
    )
    pts = closed_points_up_to(2, 2, 3)
    orbit = all(
        sum(1 for P in pts if P.degree == e) == t.a[e - 1] for e in (1, 2, 3)
    )
    _report(2, f"zeta: |trunc - 21/64| = {abs(float(trunc) - float(exact)):.2e}, "
               f"Moebius r<=16, orbit counts r<=3", close and moebius and orbit)


def test_acceptance_3_surjectivity_full_rank():
    ok = True
    detail = []
    for (p, q, m, k, e) in [(5, 5, 1, 12, 1), (2, 2, 2, 18, 1), (3, 3, 2, 18, 1)]:
        r = surjectivity_check(p, q, m, k, e)
        ok = ok and r.full_rank
        detail.append(f"({p},{q},{m},{k},{e}):rank={r.rank}/{r.expected_rank}")
    _report(3, "surjectivity " + " ".join(detail), ok)


def test_acceptance_4_mc_vs_exact():
    exact = float(Fraction(7, 8) ** 7)
    rep = mc_density(2, 2, 2, 18, r=1, samples=2000, master_seed=0)
    default_ok = abs(rep.estimate - exact) <= 3 * rep.std_error
    hits = 0
    for seed in range(1, 21):
        r2 = mc_density(2, 2, 2, 18, r=1, samples=2000, master_seed=seed)
        if abs(r2.estimate - exact) <= 3 * r2.std_error:
            hits += 1
    _report(4, f"MC vs exact: default seed |{rep.estimate:.4f} - {exact:.4f}| "
               f"<= 3se={3 * rep.std_error:.4f}, {hits}/20 seeds in band",
            default_ok and hits >= 19)


def _block_jets(w, block):
    """The datum's jets at the points of a block: one jet product."""
    return jets_from_indices(block.field, jet_at(w.slots(), block))


def test_acceptance_5_oracle_equivalence():
    # every point of degree <= 2 on P^1 and <= 1 on P^2: the closed form's
    # verdict and witness over the point's block against the oracle's, one
    # call of each per block
    rng = random.Random("acceptance-oracle")
    disagreements = 0
    checked = 0
    for p in (2, 3, 5):
        F = make_field(p, 1)
        blocks = {m: scan_blocks(m, p, r, section_degrees(p, 1)) for m, r in ((1, 2), (2, 1))}
        assert [P for b in blocks[1] for P in b.points] == closed_points_up_to(1, p, 2)
        assert [P for b in blocks[2] for P in b.points] == closed_points_up_to(2, p, 1)
        for _ in range(500):
            seed = rng.randrange(2 ** 32)
            for m in (1, 2):
                w = random_weierstrass(m, 1, F, seed=seed)
                for b in blocks[m]:
                    J = _block_jets(w, b)
                    hit, ref = singular_jets_closed_form(J), singular_jets_oracle(J)
                    checked += hit.mask.size
                    disagreements += int(np.count_nonzero(
                        (hit.mask != ref.mask)
                        | (hit.mask & ((hit.x.idx != ref.x.idx) | (hit.y.idx != ref.y.idx)))))
    _report(5, f"oracle equivalence: {checked} point-tests, "
               f"{disagreements} disagreements", disagreements == 0)


def _const_datum(field, m, k, c4, c6):
    secs = {}
    for i in (1, 2, 3, 4, 6):
        d = i * k
        c = {4: c4, 6: c6}.get(i, 0) % field.p
        if c == 0:
            secs[i] = Section.zero(m, d, field)
        else:
            secs[i] = monomial(m, (d,) + (0,) * m, field.from_int(c))
    return WeierstrassData(m=m, k=k, field=field, a1=secs[1], a2=secs[2],
                           a3=secs[3], a4=secs[4], a6=secs[6])


def test_acceptance_6_trivial_invariants():
    F7 = make_field(7, 1)
    F5 = make_field(5, 1)
    pts = closed_points_up_to(1, 7, 2)

    # a witness over every point of degree <= 2, in listing order
    cusp = _const_datum(F5, 1, 1, 0, 0)
    cusp_ok = cusp.delta.is_zero and (
        [wit.point for wit in singular_scan(cusp, 2)] == closed_points_up_to(1, 5, 2))

    node = _const_datum(F7, 1, 1, -3, 2)
    node_wits = singular_scan(node, 2)
    node_ok = node.delta.is_zero and [wit.point for wit in node_wits] == pts
    witness_ok = all(wit.x == wit.point.field.one and wit.y == wit.point.field.zero
                     for wit in node_wits if wit.point.chart == 0)

    # the section at infinity (0:1:0) is never a singular point
    inf_ok = True
    for seed in range(25):
        w = random_weierstrass(1, 1, F7, seed=seed)
        for b in scan_blocks(1, 7, 1, section_degrees(7, 1)):
            if infinity_partial(_block_jets(w, b)).is_zero.any():
                inf_ok = False

    non_min = _const_datum(F5, 1, 1, 0, 1)  # (a4, a6) = (0, x0^6)
    min_ok = minimality_witness(non_min, 1) is not None

    _report(6, "trivial invariants: cusp singular everywhere with delta == 0; "
               "node delta == 0 with witness (1,0) on chart 0; "
               "infinity never singular; (0, x0^6k) non-minimal",
            cusp_ok and node_ok and witness_ok and inf_ok and min_ok)


def test_acceptance_7_asymptotic_meta():
    # The k -> infinity density limit and the rank-zero consequences are not
    # checkable at desk scale; their finite ingredients are criteria 1-5.
    # This records that stance and re-asserts the two headline numbers those
    # criteria feed: the truncated product target and the census fraction.
    census = jet_census(2, 2, 2, 1)
    frac_ok = census.bad_fraction == Fraction(1, 8)
    exact = zeta_inverse_exact_Pm(2, 2, 3)
    _report(7, "asymptotic statement covered by criteria 1-5 "
               f"(census fraction {census.bad_fraction}, zeta value {exact})",
            frac_ok and exact == Fraction(21, 64))
