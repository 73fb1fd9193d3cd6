import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateperiods.errors import PreconditionError
from tateperiods.ncalg import (
    NCSeries,
    ad_action,
    bernoulli_numbers,
    bernoulli_series,
    dynkin_theta,
    grouplike_defects,
    is_lie_element,
    lie_bracket,
    nc_exp,
    nc_inverse,
    nc_log,
    nc_multiply,
    shuffle_product,
    substitute_letters,
)

AB = ("a", "b")
ONE = Fraction(1)


def unit(trunc=4, letters=AB):
    return NCSeries.unit(letters, trunc, ONE)


def let(name, trunc=4, letters=AB):
    return NCSeries.letter(letters, trunc, ONE, name)


def random_series(rng, trunc=4, letters=AB, zero_constant=False):
    coeffs = {}
    words = [()]
    for _ in range(trunc):
        words = [w + (l,) for w in words for l in letters] + words
    for w in set(words):
        if rng.random() < 0.4:
            coeffs[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    if zero_constant:
        coeffs.pop((), None)
    return NCSeries(letters, trunc, ONE, coeffs)


def test_shuffle_single_letters():
    assert shuffle_product(("a",), ("b",)) == {("a", "b"): 1, ("b", "a"): 1}


def test_shuffle_aa_b():
    assert shuffle_product(("a", "a"), ("b",)) == {
        ("a", "a", "b"): 1,
        ("a", "b", "a"): 1,
        ("b", "a", "a"): 1,
    }


def test_shuffle_empty_identity():
    w = ("a", "b", "a")
    assert shuffle_product((), w) == {w: 1}
    assert shuffle_product(w, ()) == {w: 1}


def test_shuffle_total_count():
    rng = random.Random(7)
    for _ in range(10):
        w1 = tuple(rng.choice(AB) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(AB) for _ in range(rng.randint(0, 4)))
        total = sum(shuffle_product(w1, w2).values())
        assert total == math.comb(len(w1) + len(w2), len(w1))


def test_shuffle_commutative_associative():
    rng = random.Random(11)
    for _ in range(8):
        ws = [tuple(rng.choice(AB) for _ in range(rng.randint(0, 3))) for _ in range(3)]
        w1, w2, w3 = ws
        assert shuffle_product(w1, w2) == shuffle_product(w2, w1)
        left = {}
        for w, m in shuffle_product(w1, w2).items():
            for v, m2 in shuffle_product(w, w3).items():
                left[v] = left.get(v, 0) + m * m2
        right = {}
        for w, m in shuffle_product(w2, w3).items():
            for v, m2 in shuffle_product(w1, w).items():
                right[v] = right.get(v, 0) + m * m2
        assert left == right


def test_concat_basic():
    f = unit(2) + let("a", 2)
    g = unit(2) + let("b", 2)
    prod = nc_multiply(f, g, 2)
    assert prod.coefficient(()) == 1
    assert prod.coefficient(("a",)) == 1
    assert prod.coefficient(("b",)) == 1
    assert prod.coefficient(("a", "b")) == 1
    assert prod.coefficient(("b", "a")) == 0


def test_concat_unit_and_inverse():
    rng = random.Random(3)
    f = random_series(rng, trunc=3)
    assert nc_multiply(f, unit(3)) == f
    a = let("a", 2)
    inv = unit(2) - a + nc_multiply(a, a)
    assert nc_multiply(unit(2) + a, inv) == unit(2)


def test_concat_associative():
    rng = random.Random(5)
    for _ in range(5):
        f, g, h = (random_series(rng, trunc=3) for _ in range(3))
        assert nc_multiply(nc_multiply(f, g), h) == nc_multiply(f, nc_multiply(g, h))


def test_exp_zero_and_single_letter():
    assert nc_exp(NCSeries.zero(AB, 3, ONE)) == unit(3)
    e = nc_exp(let("a", 3))
    assert e.coefficient(("a",)) == 1
    assert e.coefficient(("a", "a")) == Fraction(1, 2)
    assert e.coefficient(("a", "a", "a")) == Fraction(1, 6)


def test_exp_log_round_trip():
    x = let("a") + let("b")
    assert nc_log(nc_exp(x)) == x
    rng = random.Random(9)
    for _ in range(5):
        f = random_series(rng, zero_constant=True)
        assert nc_log(nc_exp(f)) == f
        g = unit() + random_series(rng, zero_constant=True)
        assert nc_exp(nc_log(g)) == g


words = st.lists(st.sampled_from(AB), min_size=1, max_size=4).map(tuple)
series = st.dictionaries(words, st.fractions(-4, 4, max_denominator=5), max_size=6).map(
    lambda coeffs: NCSeries(AB, 4, ONE, coeffs))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(series)
def test_log_inverts_exp_property(x):
    assert nc_log(nc_exp(x)) == x


@settings(derandomize=True, max_examples=40, deadline=None)
@given(series)
def test_inverse_property(h):
    f = unit() + h
    assert nc_inverse(f) * f == unit()
    assert f * nc_inverse(f) == unit()


def test_exp_log_preconditions():
    with pytest.raises(PreconditionError):
        nc_exp(unit())
    with pytest.raises(PreconditionError):
        nc_log(let("a"))


def test_ad_action():
    TA = ("T", "A")
    T = NCSeries.letter(TA, 4, ONE, "T")
    A = NCSeries.letter(TA, 4, ONE, "A")
    f_T = NCSeries(("T",), 4, ONE, {("T",): ONE})
    assert ad_action(f_T, A) == lie_bracket(T, A)
    f_1 = NCSeries.unit(("T",), 4, ONE)
    assert ad_action(f_1, A) == A
    f_T2 = NCSeries(("T",), 4, ONE, {("T", "T"): ONE})
    assert ad_action(f_T2, A) == lie_bracket(T, lie_bracket(T, A))


def test_bernoulli_series_coefficients():
    f = bernoulli_series(4)
    assert f.coefficient(()) == 1
    assert f.coefficient(("T",)) == Fraction(-1, 2)
    assert f.coefficient(("T", "T")) == Fraction(1, 12)
    assert f.coefficient(("T", "T", "T")) == 0
    assert f.coefficient(("T",) * 4) == Fraction(-1, 720)


def test_bernoulli_against_mpmath():
    import mpmath as mp

    B = bernoulli_numbers(12)
    with mp.workdps(30):
        for n, b in enumerate(B):
            assert abs(mp.mpf(b.numerator) / b.denominator - mp.bernoulli(n)) < mp.mpf(10) ** -25


def test_bernoulli_defining_identity():
    for N in (2, 5, 8):
        f = bernoulli_series(N)
        T = NCSeries.letter(("T",), N, ONE, "T")
        expm1 = nc_exp(T) - NCSeries.unit(("T",), N, ONE)
        assert nc_multiply(f, expm1) == T


def test_grouplike_iff_primitive():
    x = let("a") + lie_bracket(let("a"), let("b")).scale(Fraction(2, 3))
    g = nc_exp(x)
    assert all(d == 0 for _, _, d in grouplike_defects(g))
    assert is_lie_element(nc_log(g))
    bad = unit() + nc_multiply(let("a"), let("b"))
    assert any(d != 0 for _, _, d in grouplike_defects(bad))
    assert not is_lie_element(nc_log(bad))


def test_dynkin_theta_scales_lie_parts():
    x = lie_bracket(let("a"), lie_bracket(let("a"), let("b")))
    assert dynkin_theta(x) == x.scale(3)


def test_substitute_letters_is_morphism():
    rng = random.Random(13)
    TA = ("T", "A")
    images = {
        "a": NCSeries(TA, 4, ONE, {("T",): ONE, ("T", "A"): Fraction(1, 2)}),
        "b": NCSeries(TA, 4, ONE, {("A",): ONE}),
    }
    f = random_series(rng, trunc=4)
    g = random_series(rng, trunc=4)
    lhs = substitute_letters(nc_multiply(f, g), images)
    rhs = nc_multiply(substitute_letters(f, images), substitute_letters(g, images))
    # images raise weight, so compare only up to the shared reliable order
    assert lhs.truncate(4) == rhs.truncate(4)
