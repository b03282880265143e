"""Finite field construction, arithmetic axioms, Frobenius and embeddings."""
import hashlib
import random
import time

import numpy as np
import pytest

from elldens import gf
from elldens.gf import (FieldArray, FieldMismatchError, embedding,
                        frobenius, is_irreducible, make_field, prime_power)
from elldens.zeta import _mobius


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(128) == (2, 7)
    assert prime_power(125) == (5, 3)
    for bad in (1, 6, 12, 100, 0, -4):
        with pytest.raises(ValueError):
            prime_power(bad)


def _sieved_factors(limit: int) -> list[list[tuple[int, int]]]:
    """The (prime, exponent) pairs of every n < limit, from a smallest-prime-
    factor sieve (no trial division)."""
    spf = [0] * limit
    for d in range(2, limit):
        if not spf[d]:
            for j in range(d, limit, d):
                spf[j] = spf[j] or d
    out = [[] for _ in range(limit)]
    for n in range(2, limit):
        rest, pairs = n, {}
        while rest > 1:
            pairs[spf[rest]] = pairs.get(spf[rest], 0) + 1
            rest //= spf[rest]
        out[n] = sorted(pairs.items())
    return out


def test_number_theory_matches_a_sieve():
    for n, pairs in enumerate(_sieved_factors(5000)):
        if n:
            assert list(gf.prime_factors(n)) == pairs, n
            assert _mobius(n) == (0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)), n
        assert gf.is_prime(n) == (pairs == [(n, 1)]), n
        if n < 2:
            with pytest.raises(ValueError, match=f"^q must be a prime power >= 2, got {n}$"):
                prime_power(n)
        elif len(pairs) == 1:
            assert prime_power(n) == pairs[0], n
        else:
            with pytest.raises(ValueError, match=f"^q={n} is not a prime power$"):
                prime_power(n)


def test_factor_tests_stop_at_the_first_prime():
    # the cofactor 2^61 - 1 is prime: running the trial division to its
    # square root would take past 10^9 divisions
    big = 2 ** 61 - 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="is not a prime power"):
        prime_power(2 * big)
    assert not gf.is_prime(4 * big)
    assert next(gf.prime_factors(6 * big)) == (2, 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p,n", [(2, 8), (2, 9), (3, 5), (5, 3), (257, 2), (2, 19)])
def test_reduction_rows_are_powers_of_the_generator(p, n):
    F = make_field(p, n)
    assert len(F._red) == n - 1
    for k in range(n - 1):
        assert F._red[k] == (F.gen ** (n + k)).coeffs, k


def test_make_field_validates():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_modulus_is_irreducible_and_stable():
    for (p, n) in [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2), (2, 8)]:
        F = make_field(p, n)
        assert len(F.modulus) == n + 1 and F.modulus[-1] == 1
        assert is_irreducible(F.modulus, p)
        # a second construction from scratch picks the same modulus
        assert make_field(p, n).modulus == F.modulus


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_field_axioms_random(p, n):
    F = make_field(p, n)
    rng = random.Random(f"axioms:{p}:{n}")
    elems = list(F.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + F.zero == a
        assert a * F.one == a
        assert a - a == F.zero
        if b != F.zero:
            assert (a / b) * b == a


def test_multiplicative_group_order():
    for (p, n) in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        F = make_field(p, n)
        for a in F.elements():
            if a == F.zero:
                continue
            assert a ** (F.size - 1) == F.one


def test_inverse_and_zero_division():
    F = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    for a in F.elements():
        if a != F.zero:
            assert a * a.inverse() == F.one


def test_int_coercion_and_pow():
    F = make_field(7, 1)
    a = F.from_int(3)
    assert a + 4 == F.zero
    assert 2 * a == F.from_int(6)
    assert a ** 0 == F.one
    assert a ** -1 == a.inverse()
    assert (a ** 6) == F.one


def test_field_mismatch_rejected():
    F1 = make_field(3, 1)
    F2 = make_field(5, 1)
    with pytest.raises(FieldMismatchError):
        F1.one + F2.one
    # distinct extensions of the same prime are also foreign to each other
    F4 = make_field(2, 2)
    F8 = make_field(2, 3)
    with pytest.raises(FieldMismatchError):
        F4.gen * F8.gen


def test_frobenius_fixes_prime_field_and_has_order_n():
    F = make_field(3, 3)
    q = 3
    for a in F.elements():
        b = frobenius(a, q)
        assert b == a ** q
        # three applications of x -> x^3 give the identity on F_27
        assert frobenius(frobenius(b, q), q) == a
    with pytest.raises(ValueError):
        frobenius(F.one, 2)


def test_frobenius_is_additive():
    F = make_field(2, 4)
    rng = random.Random("frob-add")
    elems = list(F.elements())
    for _ in range(100):
        a, b = rng.choice(elems), rng.choice(elems)
        assert frobenius(a + b, 2) == frobenius(a, 2) + frobenius(b, 2)


def test_embedding_roundtrip_f4_in_f16():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    phi = embedding(F4, F16)
    seen = set()
    for a in F4.elements():
        img = phi(a)
        assert img not in seen
        seen.add(img)
    # ring homomorphism
    for a in F4.elements():
        for b in F4.elements():
            assert phi(a * b) == phi(a) * phi(b)
            assert phi(a + b) == phi(a) + phi(b)
    assert phi(F4.one) == F16.one


def test_embedding_requires_divisible_degree():
    F4 = make_field(2, 2)
    F8 = make_field(2, 3)
    with pytest.raises(ValueError):
        embedding(F4, F8)


# the embedding's generator image per (p, n_src, n_dst), recorded from a
# scalar scan over the target field
EMBEDDING_ROOTS = {
    (2, 1, 4): 0, (2, 2, 4): 10, (2, 2, 8): 190, (2, 3, 6): 12, (3, 1, 4): 0,
    (3, 2, 4): 40, (3, 2, 6): 490, (5, 1, 3): 0, (5, 2, 4): 155, (7, 1, 2): 0,
    (2, 4, 8): 132,
}


@pytest.mark.parametrize("p,n_src,n_dst", list(EMBEDDING_ROOTS))
def test_embedding_is_the_smallest_root(p, n_src, n_dst):
    src, dst = make_field(p, n_src), make_field(p, n_dst)
    gen = embedding(src, dst).gen_image
    assert gen.idx == EMBEDDING_ROOTS[p, n_src, n_dst]

    def value(a):
        acc = dst.zero
        for c in reversed(src.modulus):
            acc = acc * a + c
        return acc

    assert gen.coeffs == min(a.coeffs for a in dst.elements() if not value(a))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_coefficient_key_orders_by_coefficients(p, n):
    F = make_field(p, n)
    by_key = np.argsort(gf.coefficient_key(F), kind="stable").tolist()
    assert by_key == sorted(range(F.size), key=lambda i: F.from_index(i).coeffs)


def test_embedding_identity():
    F9 = make_field(3, 2)
    phi = embedding(F9, F9)
    for a in F9.elements():
        assert phi(a) == a


def test_small_field_table_path_matches_generic():
    # F_256 is tabled, F_{3^6} = 729 is not; both must satisfy the same identities
    Ft = make_field(2, 8)
    Fg = make_field(3, 6)
    assert Ft._mult is not None
    assert Fg._mult is None
    for F in (Ft, Fg):
        rng = random.Random(f"table:{F.size}")
        for _ in range(60):
            a = F.from_index(rng.randrange(F.size))
            b = F.from_index(rng.randrange(1, F.size))
            assert (a * b) / b == a
            assert a - b + b == a


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 3), (2, 8)])
def test_operation_tables_match_coefficient_arithmetic_on_all_pairs(p, n):
    # the tables are gathers from the log tables; this checks them against
    # polynomial arithmetic modulo the field's modulus
    F = make_field(p, n)
    size = F.size
    coeffs = [F._decode(i) for i in range(size)]
    for i, a in enumerate(coeffs):
        assert F._negt[i] == F._encode(tuple(-c % p for c in a))
        if i:
            assert F._encode(F._mul_coeffs(a, coeffs[F._invt[i]])) == 1
        for j, b in enumerate(coeffs):
            assert F._addt[i * size + j] == F._encode(
                tuple((x + y) % p for x, y in zip(a, b)))
            assert F._mult[i * size + j] == F._encode(F._mul_coeffs(a, b))


def test_from_index_bijective():
    F = make_field(5, 2)
    idxs = {F.from_index(i).idx for i in range(F.size)}
    assert idxs == set(range(25))
    with pytest.raises(ValueError):
        F.from_index(25)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 1), (257, 1)])
def test_log_tables_agree_with_field_arithmetic(p, n):
    F = make_field(p, n)
    t = F.log_tables()
    assert t is F.log_tables()  # cached on the context
    order = F.size - 1
    g = F.from_index(int(t.antilog[1 % order]))
    # g is the smallest index of multiplicative order size - 1
    for i in range(1, g.idx):
        a = F.from_index(i)
        assert any(a ** (order // ell) == F.one for ell in range(2, order + 1)
                   if order % ell == 0)
    assert sorted(t.antilog.tolist()) == list(range(1, F.size))
    for k in {0, order // 2, order - 1}:
        assert t.antilog[k] == (g ** k).idx
    rng = random.Random(f"logt-{p}-{n}")
    for _ in range(50):
        a, b = (F.from_index(rng.randrange(1, F.size)) for _ in range(2))
        assert t.antilog[(t.log[a.idx] + t.log[b.idx]) % order] == (a * b).idx
    assert t.digits.dtype == ("uint8" if p < 257 else "uint16")
    for i in (0, 1, F.size - 1):
        assert tuple(int(c) for c in t.digits[i]) == F.from_index(i).coeffs


# sha256 of the bytes of log, antilog and digits, as the whole-array doubling
# build gave them; the slab-by-slab build must reproduce them
LOG_TABLE_DIGESTS = [
    (2, 19, ("b8edf18f0551fd241f0e4de485c86573ee3db68e3b2b1d16fd4e8ae5f8ce51f1",
             "c2d56e84c4175c94dd901a9cd56f5f81aee0c22f39fd7a26fe1c9eb14ac867c1",
             "a9206d88ed9f58c6f18f4435ef130d97c84ec2be25fab5deb678388fcff46a77")),
    (3, 11, ("4d1652a606dc51e33dac5afd701268e04344775824f5d5b08a37ce0f6cf89462",
             "8109976e11ad71af41984232b667ea42adf87299345670f37170172206aac418",
             "7b4bb8d5898edd0568c02d8db201192bc5c04a3897f377df91eca5c7d78e786a")),
    (2, 8, ("d7002cc4ed06901ab31dbe2edbbcf6ec8f2d06cf5a632794b3790ceb77367e99",
             "d4d4e56a8c2c66bf2cc68c015dccdc7f2efefcbab05cf37ec7f5519baef5d40c",
             "b5c9924fd181c6eac0b4bc03b8e1f31f9ecc1e0686bc42b9ac49d118eecd8e48")),
    (5, 7, ("752ed3e4575b41dd47b34994a06b55a2bf5e1776f765506b0472120528815949",
             "89a4a272c305defa3637ae8d1ade88f66ecb3e1d66b875fe631d62d6ddc97035",
             "a015be45719a4d1bff0edc3cad63370620257850af608a81d334a5ee62e4ac16")),
    (257, 2, ("be08afd7b87ef13d4704eeea9644fe66d426b108a0591351a8ef779fd8daa04a",
             "38348b4d1463ad043d9990fcb5b54b59994b3a1bf0abfc735250f7a0b79f2054",
             "cb3187a5c096059f1c85ae8469d9b30e00bb9d5a51bfcdda8aae83e9bc521d4f")),
]


@pytest.mark.parametrize("p,n,digests", LOG_TABLE_DIGESTS,
                         ids=[f"F_{p}^{n}" for p, n, _ in LOG_TABLE_DIGESTS])
def test_log_tables_are_pinned(p, n, digests):
    t = make_field(p, n).log_tables()
    assert [a.dtype for a in (t.log, t.antilog, t.digits)] == [
        np.int64, np.int64, np.min_scalar_type(p - 1)]
    assert t.digits.shape == (p ** n, n)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (t.log, t.antilog, t.digits)) == digests


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (7, 1), (3, 2), (5, 2),
                                 (5, 3), (257, 1), (2, 9)])
def test_field_array_ops_match_field_elems_on_all_pairs(p, n):
    # fields up to 256 elements take the table path, F_257 and F_512 the log path
    F = make_field(p, n)
    Q = F.size
    assert isinstance(gf._kernel(F), gf._LogKernel) == (Q > 256)
    E = list(F.elements())
    add = [[None] * Q for _ in range(Q)]
    mul = [[None] * Q for _ in range(Q)]
    for i in range(Q):
        for j in range(i, Q):
            add[i][j] = add[j][i] = (E[i] + E[j]).idx
            mul[i][j] = mul[j][i] = (E[i] * E[j]).idx
    neg = [(-a).idx for a in E]
    inv = [None] + [a.inverse().idx for a in E[1:]]
    # FieldElem subtracts as a + (-b) and divides as a * b.inverse()
    sub = [[add[i][neg[j]] for j in range(Q)] for i in range(Q)]
    div = [[mul[i][inv[j]] for j in range(1, Q)] for i in range(Q)]

    a = FieldArray(F, np.repeat(np.arange(Q), Q).reshape(Q, Q))
    b = FieldArray(F, np.tile(np.arange(Q), Q).reshape(Q, Q))
    assert (a + b).idx.tolist() == add
    assert (a - b).idx.tolist() == sub
    assert (a * b).idx.tolist() == mul
    assert (a[:, 1:] / b[:, 1:]).idx.tolist() == div
    x = FieldArray(F, np.arange(Q))
    assert (-x).idx.tolist() == neg
    for e in (Q // 2, Q // 3, 0, -1 if Q > 2 else 0):
        got = (x[1:] if e < 0 else x) ** e
        assert got.idx.tolist() == [(c ** e).idx for c in (E[1:] if e < 0 else E)]
    assert x.is_zero.tolist() == [i == 0 for i in range(Q)]


def test_field_array_coercion_indexing_and_errors():
    F = make_field(5, 2)
    x = FieldArray(F, [0, 1, 7, 24])
    c = F.from_index(7)
    assert (4 * x).idx.tolist() == [(4 * F.from_index(i)).idx for i in (0, 1, 7, 24)]
    assert (x + 3).idx.tolist() == (3 + x).idx.tolist()
    assert (1 - x).idx.tolist() == [(1 - F.from_index(i)).idx for i in (0, 1, 7, 24)]
    assert (c * x).idx.tolist() == (x * c).idx.tolist()
    assert (c / x[1:]).idx.tolist() == [(c / F.from_index(i)).idx for i in (1, 7, 24)]
    assert x[2] == c and isinstance(x[1:], FieldArray)
    with pytest.raises(ZeroDivisionError):
        c / x
    with pytest.raises(ZeroDivisionError):
        x ** -1
    with pytest.raises(TypeError):
        bool(x)
    with pytest.raises(FieldMismatchError):
        x + make_field(5, 1).one
