"""Command line behavior: output schemas, determinism, exit codes."""
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elldens.cli import fraction_decimal, main
from elldens.gf import make_field, prime_power
from elldens.weier import dump_weier, random_weierstrass, weier_to_obj
from fractions import Fraction
from support import monomial, random_section


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fraction_decimal():
    assert fraction_decimal(Fraction(21, 64)) == "0.328125"
    assert fraction_decimal(Fraction(1, 3)) == "0.333333333333"
    assert fraction_decimal(Fraction(823543, 2097152)) == "0.392695903778"
    assert fraction_decimal(Fraction(2, 1)) == "2"


def test_zeta_json(capsys):
    code, out = _run(capsys, ["zeta", "-m", "2", "-q", "2", "-R", "3", "-s", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["format_version"] == 1
    assert obj["config"]["command"] == "zeta"
    assert obj["result"]["N"] == [7, 21, 73]
    assert obj["result"]["a"] == [7, 7, 22]
    assert obj["result"]["exact_inverse"] == "21/64"
    assert "timing" in obj


def test_census_csv(capsys):
    code, out = _run(capsys, ["census", "-p", "5", "-q", "5", "-m", "1", "-e", "1",
                              "--format", "csv"])
    assert code == 0
    assert out == "total,bad,expected_bad,match\n625,25,25,true\n"


def test_surj_json(capsys):
    code, out = _run(capsys, ["surj", "-p", "5", "-q", "5", "-m", "1",
                              "-k", "12", "-e", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == {"rank": 4, "expected_rank": 4, "full_rank": True,
                             "rows": 4, "cols": 49 + 73}


def test_density_exact(capsys):
    code, out = _run(capsys, ["density-exact", "-q", "2", "-m", "2", "-r", "1",
                              "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "823543/2097152,0.392695903778"


def test_density_mc_deterministic_json(capsys):
    argv = ["density-mc", "-p", "3", "-q", "3", "-m", "1", "-k", "12", "-r", "1",
            "--samples", "40", "--seed", "5", "--no-timing"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["result"]["smooth_count"] + obj["result"]["delta_zero_count"] <= 40
    assert "timing" not in obj


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("p,q,m,k,r", [(2, 2, 2, 18, 1), (5, 5, 1, 36, 3),
                                       (2, 4, 1, 6, 2), (2, 2, 1, 1, 2),
                                       (3, 9, 1, 4, 1)])
def test_density_mc_golden_outputs(capsys, p, q, m, k, r):
    # bytes recorded from earlier implementations: the scalar jet matrices
    # and the per-point scalar detector
    argv = ["density-mc", "-p", str(p), "-q", str(q), "-m", str(m), "-k", str(k),
            "-r", str(r), "--samples", "200", "--seed", "7", "--no-timing"]
    code, out = _run(capsys, argv)
    assert code == 0
    want = GOLDEN / f"density_mc_p{p}_q{q}_m{m}_k{k}_r{r}.json"
    assert out.encode() == want.read_bytes()


def test_scan_random_csv(capsys):
    code, out = _run(capsys, ["scan", "--random", "-q", "5", "-m", "1", "-k", "1",
                              "--seed", "13", "-r", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,chart,coords,x,y"
    assert len(lines) == 2
    assert lines[1].startswith("1,0,")


def test_scan_random_prime_above_256(capsys):
    # slots are drawn with a dtype wide enough for p - 1 = 256
    code, out = _run(capsys, ["scan", "--random", "-q", "257", "-m", "1", "-k", "1",
                              "-r", "1", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["config"]["q"] == 257


def test_scan_smooth_datum_is_empty(capsys):
    code, out = _run(capsys, ["scan", "--random", "-q", "5", "-m", "1", "-k", "1",
                              "--seed", "0", "-r", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["singular_points"] == 0
    assert obj["result"]["witnesses"] == []


def test_minimal_from_file(capsys, tmp_path):
    from elldens.sections import Section
    from elldens.weier import WeierstrassData
    F5 = make_field(5, 1)
    w = WeierstrassData(
        m=1, k=1, field=F5,
        a1=Section.zero(1, 1, F5), a2=Section.zero(1, 2, F5),
        a3=Section.zero(1, 3, F5), a4=Section.zero(1, 4, F5),
        a6=monomial(1, (6, 0), F5.one),
    )
    path = tmp_path / "datum.json"
    dump_weier(w, str(path))
    code, out = _run(capsys, ["minimal", "--input", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["minimal"] is False
    assert obj["result"]["complete"] is True
    assert obj["result"]["witness"]["degree"] == 1


def test_scan_rejects_stored_datum_with_other_modulus(capsys, tmp_path):
    # F_9 as F_3[x]/(x^2+x+2) is isomorphic to make_field's F_3[x]/(x^2+1),
    # but closed points take only make_field's elements
    path = tmp_path / "datum.json"
    dump_weier(random_weierstrass(1, 1, make_field(3, 2), seed=1), str(path))
    obj = json.loads(path.read_text())
    assert obj["field"]["modulus"] == [1, 0, 1]
    obj["field"]["modulus"] = [2, 1, 1]
    path.write_text(json.dumps(obj))
    code = main(["scan", "--input", str(path), "-r", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: stored field modulus [2, 1, 1] of F_3^2 is not "
                            "the expected modulus [1, 0, 1]\n")


@pytest.mark.parametrize("sections", [[], None, "abc"])
def test_minimal_rejects_sections_that_are_not_an_object(capsys, tmp_path, sections):
    obj = weier_to_obj(random_weierstrass(1, 1, make_field(5, 1), seed=1))
    obj["sections"] = sections
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    code = main(["minimal", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed fibration object: ")
    assert captured.err.count("\n") == 1


def _set(*path_and_value):
    """A change to a stored datum: the value at the path of keys and indices."""
    *path, key, value = path_and_value

    def change(obj):
        for p in path:
            obj = obj[p]
        obj[key] = value
    return change


@pytest.mark.parametrize("command", [["scan", "-r", "1"], ["minimal"]], ids=["scan", "minimal"])
@pytest.mark.parametrize("change,message", [
    (_set("m", 1.5), "m must be an integer, got 1.5"),
    (_set("k", 1.9), "k must be an integer, got 1.9"),
    (_set("k", True), "k must be an integer, got True"),
    (_set("k", -1), "need k >= 1, got -1"),
    (_set("field", "p", 5.7), "p must be an integer, got 5.7"),
    (_set("format_version", True), "format_version must be an integer, got True"),
    (_set("sections", "a4", [[[True, 3], [1]]]),
     "section record [[True, 3], [1]] is not [exponents, digits] of ints"),
    (_set("sections", "a6", [[[6, 0], [1]], [[6, 0], [2]]]),
     "monomial [6, 0] has more than one record"),
    (_set("sections", "a9", []), "unknown section 'a9', not one of a1, a2, a3, a4, a6"),
    (_set("sections", "a6", [[[6, 0], [1.0]]]),
     "section record [[6, 0], [1.0]] is not [exponents, digits] of ints"),
], ids=["float-m", "float-k", "bool-k", "negative-k", "float-p", "bool-version", "bool-exponent",
        "twice-listed-monomial", "unknown-form", "float-digit"])
def test_stored_datum_is_read_strictly(capsys, tmp_path, command, change, message):
    # a float or bool where an integer belongs, a k below 1, a monomial
    # listed twice and an unknown form are each refused in one line that
    # names them
    obj = weier_to_obj(random_weierstrass(1, 1, make_field(5, 1), seed=1))
    change(obj)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_random_k18_finishes():
    # the k = 18 discriminant on P^2 (degree 216, 11,908 terms) is expanded
    # eagerly when the datum is built
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "scan", "--random", "-q", "2", "-m", "2",
         "-k", "18", "-r", "1", "--seed", "1", "--no-timing"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["config"]["k"] == 18


def test_minimal_random_is_minimal(capsys):
    code, out = _run(capsys, ["minimal", "--random", "-q", "5", "-m", "1",
                              "-k", "1", "--seed", "3", "--format", "csv"])
    assert code == 0
    assert out == "minimal,complete\ntrue,true\n"


def test_invalid_config_exit_2(capsys):
    code = main(["zeta", "-m", "2", "-q", "2", "-R", "3", "-s", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "s" in err and "error" in err
    code = main(["density-mc", "-p", "2", "-q", "6", "-m", "1", "-k", "6",
                 "-r", "1", "--samples", "5"])
    assert code == 2
    code = main(["scan", "--random", "-q", "5", "-m", "1", "-r", "1"])  # no -k
    assert code == 2
    code = main(["minimal", "--input", "/nonexistent/datum.json"])
    assert code == 2


def test_density_mc_rejects_the_removed_threads_flag():
    # the estimator runs in one process; a script passing the old flag
    # fails with a usage error instead of running
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "density-mc", "-p", "2", "-q", "2", "-m", "1",
         "-k", "6", "-r", "1", "--samples", "5", "--threads", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: unrecognized arguments: --threads 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,message", [
    (["density-exact", "-q", "6", "-m", "1", "-r", "1"], "q=6 is not a prime power"),
    (["zeta", "-m", "1", "-q", "6", "-R", "2", "-s", "2"], "q=6 is not a prime power"),
    (["census", "-p", "2", "-q", "2", "-m", "0", "-e", "1"], "need m >= 1, got 0"),
    (["surj", "-p", "2", "-q", "2", "-m", "1", "-k", "0", "-e", "1"], "need k >= 1, got 0"),
    (["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "0", "-r", "1",
      "--samples", "1", "--seed", "1"], "need k >= 1, got 0"),
    (["census", "-p", "4", "-q", "4", "-m", "1", "-e", "1"], "p=4 is not prime"),
    (["surj", "-p", "4", "-q", "4", "-m", "1", "-k", "1", "-e", "1"], "p=4 is not prime"),
    (["density-mc", "-p", "4", "-q", "4", "-m", "1", "-k", "1", "-r", "1",
      "--samples", "1"], "p=4 is not prime"),
    (["census", "-p", "2", "-q", "2", "-m", "1", "-e", "0"], "need e >= 1, got 0"),
    (["surj", "-p", "2", "-q", "2", "-m", "1", "-k", "1", "-e", "0"], "need e >= 1, got 0"),
])
def test_configurations_outside_the_domain_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["minimal", "--random", "-q", "4", "-m", "2", "-k", "1", "--cap", "-1"],
     "--cap must be >= 1, got -1"),
    (["minimal", "--random", "-q", "4", "-m", "2", "-k", "1", "--cap", "0"],
     "--cap must be >= 1, got 0"),
    (["scan", "--random", "-q", "5", "-m", "1", "-k", "1", "-r", "1", "--cap", "0"],
     "--cap must be >= 1, got 0"),
    (["census", "-p", "2", "-q", "2", "-m", "1", "-e", "1", "--cap", "-5"],
     "--cap must be >= 1, got -5"),
    (["scan", "--random", "-q", "5", "-m", "1", "-k", "1", "-r", "1", "--seed", "-1"],
     "--seed must be >= 0 with --random, got -1"),
    (["minimal", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "-2"],
     "--seed must be >= 0 with --random, got -2"),
    (["scan", "--random", "-q", "5", "-m", "1", "-k", "-1", "-r", "1"],
     "need k >= 1, got -1"),
    (["minimal", "--random", "-q", "5", "-m", "1", "-k", "-1"], "need k >= 1, got -1"),
    (["density-exact", "-q", "2", "-m", "1", "-r", "0"], "need 1 <= r <= 32, got 0"),
    (["density-exact", "-q", "2", "-m", "1", "-r", "40"], "need 1 <= r <= 32, got 40"),
    (["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "1", "-r", "0", "--samples", "1"],
     "need 1 <= r <= 32, got 0"),
    (["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "1", "-r", "40", "--samples", "1"],
     "need 1 <= r <= 32, got 40"),
], ids=["minimal-cap-negative", "minimal-cap-zero", "scan-cap-zero", "census-cap-negative",
        "scan-seed-negative", "minimal-seed-negative", "scan-k-negative", "minimal-k-negative",
        "density-exact-r-zero", "density-exact-r-large", "density-mc-r-zero",
        "density-mc-r-large"])
def test_flags_outside_their_domain_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_density_mc_accepts_a_negative_seed(capsys):
    # a master seed only names the per-sample streams, so any integer will do
    code, out = _run(capsys, ["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "6",
                              "-r", "1", "--samples", "5", "--seed", "-4", "--no-timing"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == -4


@pytest.mark.parametrize("q,m,k,seed", [(4, 2, 1, 10), (9, 1, 2, 1)])
def test_scan_and_minimal_golden_outputs(capsys, q, m, k, seed):
    # bytes recorded from the sparse per-monomial jet loop; q = 4 has
    # witnesses at degrees 1 and 2, q = 9 one at degree 1
    name = f"q{q}_m{m}_k{k}"
    src = ["--random", "-q", str(q), "-m", str(m), "-k", str(k), "--seed", str(seed),
           "--no-timing"]
    code, out = _run(capsys, ["scan"] + src + ["-r", "2"])
    assert code == 0
    assert out.encode() == (GOLDEN / f"scan_{name}_r2_seed{seed}.json").read_bytes()
    code, out = _run(capsys, ["minimal"] + src)
    assert code == 0
    assert out.encode() == (GOLDEN / f"minimal_{name}_seed{seed}.json").read_bytes()


def test_minimal_golden_witness_from_stored_input(capsys, monkeypatch):
    # a_i = c_i u^i over F_9 on P^2 with u = x0 + g x1 + (g + 1) x2, g the
    # field's generator: the witness is u, three terms whose records are
    # pinned byte for byte; the input is named from the golden directory so
    # that the recorded source reads the same anywhere
    monkeypatch.chdir(GOLDEN)
    code, out = _run(capsys, ["minimal", "--input", "datum_q9_m2_k1.json", "--no-timing"])
    assert code == 0
    assert out.encode() == (GOLDEN / "minimal_input_q9_m2_k1.json").read_bytes()


@pytest.mark.parametrize("q", [2 ** 64, 2 ** 65])
def test_minimal_certifies_past_the_int64_index_range(capsys, q):
    # element indices of F_{2^64} and F_{2^65} pass 2^63; the line bound
    # still reads the forms' elements exactly and certifies the datum
    code, out = _run(capsys, ["minimal", "--random", "-q", str(q), "-m", "1", "-k", "1",
                              "--seed", "0", "--jmax", "1", "--no-timing"])
    assert code == 0
    assert json.loads(out)["result"] == {"minimal": True, "complete": True}


def test_feasibility_exit_3(capsys):
    code = main(["census", "-p", "2", "-q", "2", "-m", "2", "-e", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cap" in err


def test_census_refuses_a_huge_extension_at_once():
    # the cap is checked before F_{2^300} is built, which would not finish
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "census", "-p", "2", "-q", "2", "-m", "1",
         "-e", "300"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: jet census needs 2^2400 tuples > cap 67108864\n"


def test_scan_over_a_17_digit_prime_field_exits_3_at_once(capsys):
    # trial division to the square root of q would take ~10^8 steps, twice
    start = time.perf_counter()
    code = main(["scan", "--random", "-q", "10000000000000061", "-m", "1", "-k", "1",
                 "-r", "1"])
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["density-exact", "-q", "2", "-m", "2", "-r", "6"],
    ["density-mc", "-p", "2", "-q", "2", "-m", "2", "-k", "1", "-r", "6", "--samples", "1"],
], ids=["density-exact", "density-mc"])
def test_exact_result_too_long_to_print_exits_3(capsys, argv):
    # the exact density's denominator is 2^16389 (4934 digits): within the
    # library's exact budget, past the 4300 digits Python converts to a string
    assert main(argv + ["--no-timing"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_UNPRINTABLE = (f"error: an exact value has more than {sys.get_int_max_str_digits()} "
                "digits and cannot be printed\n")


@pytest.mark.parametrize("argv", [
    ["zeta", "-m", "20000", "-q", "2", "-R", "1"],
    ["zeta", "-m", "20000", "-q", "2", "-R", "1", "--format", "csv"],
    ["zeta", "-m", "1000000", "-q", "2", "-R", "1"],
    ["density-exact", "-q", "2", "-m", "20000", "-r", "1"],
    ["density-exact", "-q", "65536", "-m", "5", "-r", "32"],
    ["density-exact", "-q", "2", "-m", "1", "-r", "16"],
    ["density-exact", "-q", "2", "-m", "1", "-r", "21"],
    ["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "1", "-r", "21", "--samples", "1"],
], ids=["zeta-m20000", "zeta-m20000-csv", "zeta-m1000000", "exact-m20000", "exact-q65536",
        "exact-r16", "exact-r21", "mc-r21"])
def test_unprintable_results_exit_3_at_once(capsys, argv):
    # N_1 of P^20000 over F_2 has 6,021 digits, and the exact densities'
    # denominators q^E are far past 4300 digits; each is refused by its
    # length alone, before a long product or any sample, with one message
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr() == ("", _UNPRINTABLE)


def test_census_message_stays_printable():
    # e and m of 4001 digits each: the tuple exponent has ~8000 digits, too
    # many to print, so the message names the cap alone
    huge = str(10 ** 4000)
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "census", "-p", "2", "-q", "2", "-m", huge,
         "-e", huge],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 3
    assert proc.stderr == "error: jet census needs more tuples than cap 67108864\n"


@pytest.mark.parametrize("q", [2, 3, 10, 16, 65537])
def test_printability_is_decided_from_the_exponent(q):
    # the check refuses q^E exactly where str() does, at the least limit
    # Python accepts and with no limit, without forming q^E when it is long
    from elldens import cli
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for E in range(1, 4 * 640):  # 2^(4 limit) > 10^limit: past the boundary
            try:
                str(q ** E)
            except ValueError:
                with pytest.raises(cli.FeasibilityError):
                    cli._check_printable(q, E)
            else:
                cli._check_printable(q, E)
        t0 = time.perf_counter()
        with pytest.raises(cli.FeasibilityError):
            cli._check_printable(q, 10 ** 100)
        assert time.perf_counter() - t0 < 1
        sys.set_int_max_str_digits(0)
        cli._check_printable(q, 10 ** 100)
    finally:
        sys.set_int_max_str_digits(old)


def test_density_mc_refuses_an_unprintable_exact_density_before_sampling():
    # a million samples would run for minutes; the refusal comes first
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "density-mc", "-p", "2", "-q", "2", "-m", "2",
         "-k", "1", "-r", "6", "--samples", "1000000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,exact", [
    (["-m", "2", "-q", "2", "-R", "6", "-s", "3"], {"exact_inverse": "21/64"}),
    (["-m", "1", "-q", "2", "-R", "1", "-s", "20000"], {}),
    (["-m", "1", "-q", "2", "-R", "1", "-s", "100000000"], {}),  # past the budget
    # the truncated product's denominator 2^(2 sum_{e<=21} e a_e) is left
    # out by its length, before it is computed (87 s)
    (["-m", "1", "-q", "2", "-R", "21", "-s", "2"], {"exact_inverse": "3/8"}),
], ids=["m2-R6-s3", "s20000", "s100000000", "R21-s2"])
def test_zeta_omits_exact_values_it_cannot_print(capsys, argv, exact):
    t0 = time.perf_counter()
    code, out = _run(capsys, ["zeta"] + argv + ["--no-timing"])
    assert time.perf_counter() - t0 < 2
    assert code == 0
    result = json.loads(out)["result"]
    assert float(result["truncated_inverse_float"]) > 0
    assert {k: v for k, v in result.items() if k.endswith("inverse")} == exact


def test_scan_cap_checked_when_the_shape_is_memoized(capsys):
    src = ["scan", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "13",
           "-r", "2", "--no-timing"]
    assert main(src) == 0
    capsys.readouterr()
    assert main(src + ["--cap", "31"]) == 3  # 6 + 26 rational points
    assert "cap 31" in capsys.readouterr().err
    assert main(src + ["--cap", "32"]) == 0


@pytest.mark.parametrize("argv", [
    ["scan", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "13", "-r", "7000"],
    ["scan", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "13", "-r", "100000"],
    ["surj", "-p", "5", "-q", "5", "-m", "1", "-k", "1", "-e", "7000"],
], ids=["scan-r7000", "scan-r100000", "surj-e7000"])
def test_enumeration_cap_refuses_a_large_degree_promptly(capsys, argv):
    # the rational point count passes the default cap at degree 12; its
    # full sum would take past 4300 digits to print, and at r = 100000 long
    # to add up
    t0 = time.perf_counter()
    assert main(argv + ["--no-timing"]) == 3
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: enumerating P^1 over F_5 up to degree ")
    assert err.endswith(f"needs more rational points than cap {1 << 26}\n")


def test_minimal_cap_boundary(capsys):
    # seed 4 is not certified by the line P^1 (a4 and a6 have a common factor
    # of degree 2), so the degree-1 search runs: P^1 over F_5 has
    # (25 - 1)/4 = 6 normalized linear forms
    src = ["minimal", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "4",
           "--format", "csv"]
    assert main(src + ["--cap", "5"]) == 3
    assert "6 candidate forms > cap 5" in capsys.readouterr().err
    assert _run(capsys, src + ["--cap", "6"]) == (0, "minimal,complete\ntrue,true\n")


def test_minimal_certified_datum_ignores_the_cap(capsys):
    # seed 3 is certified by the line P^1, so no candidate is counted
    src = ["minimal", "--random", "-q", "5", "-m", "1", "-k", "1", "--seed", "3",
           "--format", "csv", "--cap", "1"]
    assert _run(capsys, src) == (0, "minimal,complete\ntrue,true\n")


def test_minimal_default_jmax_refuses_a_huge_search(tmp_path):
    # a_i = c_i u^i with deg u = 4 on P^2 over F_4: every coordinate line
    # bounds a witness's degree by 4 or more, so the search at jmax = k = 4
    # keeps ~3.6e8 candidates, which ran for more than 10 minutes before the
    # candidate cap existed
    from elldens.sections import Section
    from elldens.weier import WeierstrassData
    F4 = make_field(2, 2)
    u = random_section(2, 4, F4, rng_seed=1)
    a = {i: Section(2, 4 * i, F4, {e: F4.gen * c for e, c in (u ** i).terms().items()})
         for i in (1, 3, 4, 6)}
    w = WeierstrassData(2, 4, F4, a[1], Section.zero(2, 8, F4), a[3], a[4], a[6])
    path = tmp_path / "datum.json"
    dump_weier(w, str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "minimal", "--input", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: minimality search up to degree 4")


def test_minimal_default_jmax_certifies_a_random_datum():
    # the same shape drawn at random: a coordinate line certifies it, so the
    # complete search (jmax = k = 4) takes no enumeration at all
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "minimal", "--random", "-q", "4", "-m", "2",
         "-k", "4", "--seed", "0"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["result"] == {"minimal": True, "complete": True}
    assert obj["timing"]["wall_seconds"] < 1


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    target = tmp_path / "res.csv"
    code = main(["census", "-p", "2", "-q", "2", "-m", "1", "-e", "1",
                 "--format", "csv", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[1] == "256,64,64,true"

    monkeypatch.setenv("ELLDENS_OUT_DIR", str(tmp_path))
    code = main(["census", "-p", "2", "-q", "2", "-m", "1", "-e", "1",
                 "--format", "csv", "--out", "rel.csv"])
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_unwritable_out_exits_2_with_one_error_line(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.json"
    code = main(["zeta", "-m", "1", "-q", "2", "-R", "2", "--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # the same from the command line: no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", "zeta", "-m", "1", "-q", "2", "-R", "2",
         "--out", str(missing)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_byte_identical_reruns_with_out(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["density-mc", "-p", "2", "-q", "2", "-m", "1", "-k", "6", "-r", "1",
            "--samples", "30", "--seed", "1", "--no-timing"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@st.composite
def _cli_call(draw):
    """A small argument vector for one of the seven commands, and the drawn
    values of q, m, k, r (for zeta: R) and e that it passes."""
    small = st.integers(0, 2)
    cmd = draw(st.sampled_from(("zeta", "census", "surj", "density-exact",
                                "density-mc", "scan", "minimal")))
    vals = {"q": draw(st.sampled_from((2, 3, 4, 5, 6))),
            "m": draw(small)}
    q = vals["q"]
    least_factor = next(d for d in range(2, q + 1) if q % d == 0)
    p = ["-p", str(draw(st.sampled_from((least_factor, 2, 3, 4))))]
    qm = ["-q", str(q), "-m", str(vals["m"])]
    if cmd in ("surj", "density-mc", "scan", "minimal"):
        vals["k"] = draw(small)
    if cmd in ("zeta", "density-exact", "density-mc", "scan"):
        vals["r"] = draw(small)
    if cmd in ("census", "surj"):
        vals["e"] = draw(small)
    flags = {key: [f"-{key}", str(v)] for key, v in vals.items() if key in "kre"}
    if cmd == "zeta":
        s = draw(st.sampled_from((None, 1, 2, 4)))
        argv = qm + ["-R", str(vals["r"])] + ([] if s is None else ["-s", str(s)])
    elif cmd == "census":
        argv = p + qm + flags["e"] + ["--cap", "100000"]
    elif cmd == "surj":
        argv = p + qm + flags["k"] + flags["e"]
    elif cmd == "density-exact":
        argv = qm + flags["r"]
    elif cmd == "density-mc":
        argv = p + qm + flags["k"] + flags["r"] + [
            "--samples", str(draw(st.integers(1, 3))), "--seed", "1"]
    else:
        # minimal searches only degree 1: its degree-2 search on P^2 over
        # F_5 alone takes seconds
        extra = flags["r"] if cmd == "scan" else ["--jmax", "1"]
        argv = ["--random"] + qm + flags["k"] + ["--seed", str(draw(small))] + extra
    fmt = draw(st.sampled_from(("json", "csv")))
    return [cmd] + argv + ["--format", fmt, "--no-timing"], vals


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=_cli_call())
def test_cli_contract_on_small_configurations(call):
    """Every call exits 0, 2 or 3 and never raises out of main (which a
    console run would print as a traceback); a failure prints one error
    line.  Exit 0 needs a prime power q and m, k, r and e >= 1."""
    argv, vals = call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        prime_power(vals["q"])
        assert min(vals.values()) >= 1, argv
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert out.getvalue() == ""


@st.composite
def _stored_minimal_call(draw):
    """A stored random_weierstrass datum as JSON text, perhaps with one
    edited or cut entry, and `minimal --input` flags for it."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    w = random_weierstrass(m, k, make_field(*prime_power(q)), seed=draw(st.integers(0, 3)))
    obj = weier_to_obj(w)
    edit = draw(st.sampled_from((None, None, None, "m", "k", "p", "n", "cut")))
    if edit in ("m", "k"):
        obj[edit] = draw(st.integers(-1, 3))
    elif edit in ("p", "n"):
        obj["field"][edit] = draw(st.integers(-1, 5))
    text = json.dumps(obj)
    if edit == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    jmax = draw(st.sampled_from((None, None, 1, 2, 3, 0, -1)))
    # the cap keeps every accepted search small; larger ones exit 3
    flags = ([] if jmax is None else ["--jmax", str(jmax)]) + ["--cap", "500"]
    return text, flags + ["--format", draw(st.sampled_from(("json", "csv"))), "--no-timing"]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(call=_stored_minimal_call())
def test_cli_contract_on_stored_minimal_inputs(call, tmp_path_factory):
    """`minimal --input` on stored data, whole or damaged, exits 0, 2 or 3
    and never raises out of main; a failure prints one error line."""
    text, flags = call
    path = tmp_path_factory.mktemp("datum") / "datum.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["minimal", "--input", str(path)] + flags)
    assert code in (0, 2, 3), (flags, code)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: "), (flags, err.getvalue())
        assert err.getvalue().count("\n") == 1
        assert out.getvalue() == ""


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _stored_f5_datum(path, k, sections) -> str:
    """A stored datum over F_5 on P^1 with the given twist and records."""
    path.write_text(json.dumps({"format_version": 1, "field": {"p": 5, "n": 1, "modulus": [0, 1]},
                                "m": 1, "k": k, "sections": sections}))
    return str(path)


def _line_records(k):
    # a4 = x0^(4k) + 2 x1^(4k), a6 = x0^(6k) + 3 x0 x1^(6k-1)
    return {"a4": [[[4 * k, 0], [1]], [[0, 4 * k], [2]]],
            "a6": [[[6 * k, 0], [1]], [[1, 6 * k - 1], [3]]]}


def _address_space_3gb():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv,size", [
    (["surj", "-p", "5", "-q", "5", "-m", "1", "-k", "100000000", "-e", "1"],
     "needs 16000000032 bytes > cap 268435456"),
    (["density-mc", "-p", "5", "-q", "5", "-m", "1", "-k", "100000000", "-r", "1",
      "--samples", "1"], "needs 16000000032 bytes > cap 268435456"),
    (["scan", "--input", "EMPTY", "-r", "1"], "needs 16000000032 bytes > cap 268435456"),
    (["minimal", "--input", "LINES", "--jmax", "1"], "on a4 of degree 12000000"),
    (["scan", "--random", "-q", "5", "-m", "1", "-k", "100000000", "-r", "1"],
     "needs 24000000048 bytes of term arrays > cap 268435456"),
    (["minimal", "--random", "-q", "5", "-m", "1", "-k", "100000000", "--jmax", "1"],
     "needs 24000000048 bytes of term arrays > cap 268435456"),
], ids=["surj", "density-mc", "scan-input", "minimal-input", "scan-random", "minimal-random"])
def test_huge_forms_are_refused_before_their_arrays(tmp_path, argv, size):
    # k = 10^8 forms on P^1 have 4*10^8 + 1 and 6*10^8 + 1 monomials, whose
    # random draw would hold 10^9 slots, and a line bound on degree 1.2*10^7
    # forms would run a dense Euclid: each is refused at once.  The child runs under a 3 GB address-space limit, so
    # a missing refusal fails on allocation instead of taking the host's memory
    files = {"EMPTY": _stored_f5_datum(tmp_path / "empty.json", 10 ** 8, {}),
             "LINES": _stored_f5_datum(tmp_path / "lines.json", 3 * 10 ** 6,
                                       _line_records(3 * 10 ** 6))}
    proc = subprocess.run(
        [sys.executable, "-m", "elldens", *(files.get(a, a) for a in argv), "--no-timing"],
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_3gb,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert size in proc.stderr


def test_line_bound_refusal_spares_small_and_zero_forms(capsys, tmp_path):
    # k = 10^3 is read in full and certified; all-zero forms give no line to
    # read at any k, and the enumeration finds u = x0 as before
    code, out = _run(capsys, ["minimal", "--input",
                              _stored_f5_datum(tmp_path / "small.json", 1000, _line_records(1000)),
                              "--jmax", "1", "--no-timing"])
    assert code == 0
    assert json.loads(out)["result"] == {"minimal": True, "complete": False}
    code, out = _run(capsys, ["minimal", "--input",
                              _stored_f5_datum(tmp_path / "zero.json", 3 * 10 ** 6, {}),
                              "--jmax", "1", "--no-timing"])
    assert code == 0
    assert json.loads(out)["result"] == {
        "minimal": False, "complete": False, "witness": {"degree": 1, "terms": [[[1, 0], [1]]]}}


def test_point_cap_spares_the_largest_tested_jet_maps(capsys):
    # 3.2 MB and 7.2 MB a point, far below the cap
    for argv in (["density-mc", "-p", "5", "-q", "5", "-m", "1", "-k", "40000"],
                 ["density-mc", "-p", "2", "-q", "2", "-m", "3", "-k", "20"]):
        code, _ = _run(capsys, argv + ["-r", "1", "--samples", "1", "--no-timing"])
        assert code == 0, argv
