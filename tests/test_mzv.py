import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tateperiods import mzv
from tateperiods.errors import NumericBudgetError, PreconditionError
from tateperiods.mzv import (
    _chain_levels,
    composition_of_word,
    is_admissible_word,
    mzv_numeric,
    mzv_numeric_bruteforce,
    mzv_numeric_holder,
    polylog_numeric,
    polylog_series,
    shuffle_regularize,
    word_of_composition,
)
from tateperiods.ncalg import shuffle_product
from tateperiods.periodring import PeriodElem, numeric_eval


def test_word_dictionary_round_trip():
    assert word_of_composition((2,)) == ("x1", "x0")
    assert word_of_composition((1, 2)) == ("x1", "x1", "x0")
    assert composition_of_word(("x1", "x0", "x0", "x1", "x0")) == (3, 2)
    for k in [(2,), (1, 2), (3, 1, 2), (1, 1, 4)]:
        assert composition_of_word(word_of_composition(k)) == k
    assert is_admissible_word(("x1", "x0"))
    assert not is_admissible_word(("x1", "x1"))
    assert not is_admissible_word(("x0", "x1", "x0"))
    with pytest.raises(PreconditionError):
        composition_of_word(("x0", "x1"))


def test_polylog_series_li1():
    assert polylog_series((1,), 4) == [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]


def test_polylog_series_coefficients():
    assert polylog_series((2,), 5)[3] == Fraction(1, 9)
    assert polylog_series((1, 2), 5)[2] == Fraction(1, 4)
    # brute-force chain enumeration oracle
    M = 12
    for k in [(1, 2), (2, 2), (1, 1, 2)]:
        series = polylog_series(k, M)
        for n in range(M + 1):
            total = Fraction(0)
            for chain in _chains(len(k), n):
                term = Fraction(1)
                for ki, ni in zip(k, chain):
                    term /= Fraction(ni ** ki)
                total += term
            assert series[n] == total


def _chains(length, top):
    if length == 1:
        yield (top,) if top >= 1 else ()
        return
    for prev in range(length - 1, top):
        for chain in _chains(length - 1, prev):
            yield chain + (top,)


def test_polylog_series_support():
    for k in [(1, 2), (2, 1, 1)]:
        series = polylog_series(k, 8)
        for n in range(len(k)):
            assert series[n] == 0
        assert all(c >= 0 for c in series)


def test_mzv_known_values():
    with mp.workdps(45):
        assert abs(mzv_numeric((2,), 35) - mp.pi ** 2 / 6) < mp.mpf(10) ** -35
        assert abs(mzv_numeric((4,), 35) - mp.pi ** 4 / 90) < mp.mpf(10) ** -35
        assert abs(mzv_numeric((2, 2), 35) - mp.pi ** 4 / 120) < mp.mpf(10) ** -35
        assert abs(mzv_numeric((1, 3), 35) - mp.pi ** 4 / 360) < mp.mpf(10) ** -35
        assert abs(mzv_numeric((3,), 35) - mp.zeta(3)) < mp.mpf(10) ** -35
        assert abs(mzv_numeric((6,), 35) - mp.pi ** 6 / 945) < mp.mpf(10) ** -35


def test_mzv_duality_and_stuffle():
    with mp.workdps(40):
        assert abs(mzv_numeric((1, 2), 30) - mzv_numeric((3,), 30)) < mp.mpf(10) ** -30
        lhs = mzv_numeric((2,), 30) ** 2
        rhs = 2 * mzv_numeric((2, 2), 30) + mzv_numeric((4,), 30)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


# Exact relations among zeta values check the default route: each side runs
# different chain sums, so a rounding or splitting fault shows as a mismatch.
RELATION_PRECISION = 45


@st.composite
def admissible_compositions(draw, max_weight):
    weight = draw(st.integers(2, max_weight))
    last = draw(st.integers(2, weight))
    parts, rest = [], weight - last
    while rest:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    return (*parts, last)


def dual(k):
    """k† of the duality zeta(k) = zeta(k†): reverse the word, swap x0 and x1."""
    swap = {"x0": "x1", "x1": "x0"}
    return composition_of_word(tuple(swap[letter] for letter in reversed(word_of_composition(k))))


def stuffle(a, b):
    """Quasi-shuffle a * b as a multiplicity map over compositions."""
    if not a or not b:
        return Counter({a + b: 1})
    out = Counter()
    for head, rest in ((a[0], stuffle(a[1:], b)), (b[0], stuffle(a, b[1:])),
                       (a[0] + b[0], stuffle(a[1:], b[1:]))):
        for k, m in rest.items():
            out[(head, *k)] += m
    return out


def assert_relation(lhs, terms):
    """lhs = sum of m * zeta(k) over terms, relative to lhs, at RELATION_PRECISION."""
    with mp.workdps(RELATION_PRECISION + 15):
        rhs = mp.fsum(m * mzv_numeric(k, RELATION_PRECISION) for k, m in terms.items())
        assert abs(lhs - rhs) <= abs(lhs) * mp.mpf(10) ** -RELATION_PRECISION, (lhs, rhs)


def zeta_product(a, b):
    with mp.workdps(RELATION_PRECISION + 15):
        return mzv_numeric(a, RELATION_PRECISION) * mzv_numeric(b, RELATION_PRECISION)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(admissible_compositions(12))
@example((1, 2))  # = zeta(3)
@example((1, 1, 2))  # = zeta(4)
@example((1, 1, 1, 1, 2))  # = zeta(6)
@example((2, 3))
@example((2, 1, 3))
@example((3, 4, 3, 2, 3))
def test_duality(k):
    mzv._MZV_CACHE.clear()
    assert_relation(mzv_numeric(k, RELATION_PRECISION), {dual(k): 1})


@settings(derandomize=True, max_examples=25, deadline=None)
@given(admissible_compositions(6), admissible_compositions(6))
@example((2,), (3,))
@example((1, 2), (3,))
def test_stuffle(a, b):
    mzv._MZV_CACHE.clear()
    assert_relation(zeta_product(a, b), stuffle(a, b))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(admissible_compositions(6), admissible_compositions(6))
@example((1, 2), (3,))
def test_shuffle(a, b):
    mzv._MZV_CACHE.clear()
    words = shuffle_product(word_of_composition(a), word_of_composition(b))
    assert_relation(zeta_product(a, b), {composition_of_word(w): m for w, m in words.items()})


def test_chain_levels_within_depth_ulps():
    wp = 90
    for k in [(1,), (3,), (1, 2), (3, 1, 2), (1, 1, 1, 2), (2, 3, 1, 4, 2)]:
        for M in (1, 6, 45):
            levels = _chain_levels(k, M, wp)
            for level, exact in zip(levels, polylog_series(k, M), strict=True):
                assert 0 <= exact * 2 ** wp - level < len(k), (k, M)


def test_polylog_numeric_matches_mpmath():
    with mp.workdps(80):
        z = mp.mpc("0.3", "0.4")
        for s in (1, 2, 3, 5):
            for precision in (30, 60):
                got = polylog_numeric((s,), z, precision)
                assert abs(got - mp.polylog(s, z)) < mp.mpf(10) ** -precision, (s, precision)
        # digits of small values hold relative to the value
        tiny = mp.mpf(10) ** -40
        got = polylog_numeric((3,), tiny, 30)
        assert abs(got / mp.polylog(3, tiny) - 1) < mp.mpf(10) ** -30
        assert polylog_numeric((2,), 0, 30) == 0


def test_bruteforce_within_bound():
    with mp.workdps(35):
        for k, M in [((2,), 20000), ((1, 2), 20000), ((2, 2), 8000)]:
            value, bound = mzv_numeric_bruteforce(k, M)
            assert abs(value - mzv_numeric(k, 25)) < bound
    with pytest.raises(NumericBudgetError):
        mzv_numeric_bruteforce((1, 1, 1, 2), 50)


def test_mzv_preconditions():
    with pytest.raises(PreconditionError):
        mzv_numeric((2, 1), 30)
    with pytest.raises(PreconditionError):
        mzv_numeric_holder((1,), 30)


def test_polylog_limit_toward_one():
    # Li_2(1 - eps) approaches zeta(2) at rate eps * log(1/eps)
    eps = mp.mpf(10) ** -3
    M = 40000
    series = polylog_series((2,), M)
    with mp.workdps(30):
        z = 1 - eps
        val = mp.mpf(0)
        for n in range(M, 0, -1):
            val = val * z + mp.mpf(series[n].numerator) / series[n].denominator
        val *= z
        truncation_tail = (1 - eps) ** M / (eps * M)
        drift = eps * (mp.mpf(22) / 10 + mp.log(1 / eps))
        assert abs(val - mzv_numeric((2,), 25)) < drift + truncation_tail


def test_polylog_numeric_half():
    with mp.workdps(40):
        v = polylog_numeric((1,), mp.mpf(1) / 2, 30)
        assert abs(v - mp.log(2)) < mp.mpf(10) ** -30
        with pytest.raises(NumericBudgetError):
            polylog_numeric((2,), mp.mpf("0.9"), 30)
        for z in (mp.mpf(5), mp.nan):
            with pytest.raises(PreconditionError):
                polylog_numeric((2,), z, 30)


def test_regularize_values():
    assert shuffle_regularize(("x1", "x0")) == PeriodElem.zeta((2,))
    assert shuffle_regularize(word_of_composition((1, 2))) == PeriodElem.zeta((1, 2))
    assert shuffle_regularize(("x1",)) == PeriodElem.zero()
    assert shuffle_regularize(("x0",)) == PeriodElem.zero()
    assert shuffle_regularize(("x1", "x1")) == PeriodElem.zero()
    assert shuffle_regularize(("x0", "x1")) == -PeriodElem.zeta((2,))
    assert shuffle_regularize(()) == PeriodElem.one()


def test_regularize_shuffle_homomorphism():
    rng = random.Random(77)
    prec = 30
    with mp.workdps(40):
        for _ in range(12):
            n1 = rng.randint(1, 3)
            n2 = rng.randint(1, min(4, 5 - n1))
            w1 = tuple(rng.choice(("x0", "x1")) for _ in range(n1))
            w2 = tuple(rng.choice(("x0", "x1")) for _ in range(n2))
            lhs = numeric_eval(shuffle_regularize(w1), prec) * numeric_eval(shuffle_regularize(w2), prec)
            acc = PeriodElem.zero()
            for w, mult in shuffle_product(w1, w2).items():
                acc = acc + shuffle_regularize(w) * mult
            rhs = numeric_eval(acc, prec)
            assert abs(lhs - rhs) < mp.mpf(10) ** -(prec - 5)
