import random
from fractions import Fraction

import mpmath as mp
import pytest

from tateperiods.elliptic import (
    ELLIPTIC_LETTERS,
    QSeriesPoly,
    eisenstein_series,
    elliptic_associator,
    hain_hom,
    integrate_tau,
    iterated_eisenstein,
    qseries_eval,
    word_symbol,
)
from tateperiods.errors import NumericBudgetError, PreconditionError, UnboundSymbolError
from tateperiods.ncalg import NCSeries, lie_bracket
from tateperiods.periodring import PeriodElem, numeric_eval


def letter(name, N):
    return NCSeries.letter(ELLIPTIC_LETTERS, N, Fraction(1), name)


def test_hain_images_low_weight():
    h = hain_hom(3)
    T, A = letter("T", 3), letter("A", 3)
    TA = lie_bracket(T, A)
    assert h["x1"] == TA
    assert h["x0"] == A - TA.scale(Fraction(1, 2)) + lie_bracket(T, TA).scale(Fraction(1, 12))


def test_hain_images_sum_to_zero():
    for N in range(1, 13):
        h = hain_hom(N)
        assert (h["x0"] + h["x1"] + h["xinf"]).is_zero()


def test_hain_needs_positive_truncation():
    with pytest.raises(PreconditionError):
        hain_hom(0)


def test_eisenstein_known_coefficients():
    G4 = eisenstein_series(4, 10)
    assert G4.coefficient(0) == PeriodElem.from_rational(Fraction(1, 240))
    assert G4.coefficient(1) == PeriodElem.from_rational(1)
    assert G4.coefficient(2) == PeriodElem.from_rational(9)
    assert G4.coefficient(3) == PeriodElem.from_rational(28)
    G6 = eisenstein_series(6, 4)
    assert G6.coefficient(0) == PeriodElem.from_rational(Fraction(-1, 504))
    assert G6.coefficient(2) == PeriodElem.from_rational(33)
    assert eisenstein_series(0, 5) == QSeriesPoly.constant(1, 5)


def test_eisenstein_rejects_bad_weights():
    for w in (2, 3, 5, -4):
        with pytest.raises(PreconditionError):
            eisenstein_series(w, 5)
    with pytest.raises(PreconditionError):
        eisenstein_series(4, -1)


def test_iterated_eisenstein_base_cases():
    assert iterated_eisenstein((), 5) == QSeriesPoly.constant(1, 5)
    I0 = iterated_eisenstein((0,), 5)
    assert I0.coeffs == {(0, 1): PeriodElem.one()}
    I00 = iterated_eisenstein((0, 0), 5)
    assert I00.coeffs == {(0, 2): PeriodElem.from_rational(Fraction(1, 2))}
    I4 = iterated_eisenstein((4,), 8)
    assert I4.coefficient(1) == PeriodElem.ipi(-1) * Fraction(1, 2)
    assert I4.tau_degree() == 1


def test_integrate_tau_inverts_derivative():
    s = eisenstein_series(4, 12) * iterated_eisenstein((0, 6), 12)
    assert integrate_tau(s).derivative_tau() == s


def test_shuffle_identity_pairs_and_triples():
    rng = random.Random(7)
    pool = [0, 4, 6, 8]
    Q = 40
    for _ in range(4):
        a, b = rng.choice(pool), rng.choice(pool)
        lhs = iterated_eisenstein((a,), Q) * iterated_eisenstein((b,), Q)
        rhs = iterated_eisenstein((a, b), Q) + iterated_eisenstein((b, a), Q)
        assert lhs == rhs, (a, b)
    for _ in range(2):
        a, b, c = (rng.choice(pool) for _ in range(3))
        lhs = iterated_eisenstein((a,), Q) * iterated_eisenstein((b, c), Q)
        rhs = (iterated_eisenstein((a, b, c), Q)
               + iterated_eisenstein((b, a, c), Q)
               + iterated_eisenstein((b, c, a), Q))
        assert lhs == rhs, (a, b, c)


def test_derivative_recursion():
    Q = 20
    for idx in ((4,), (4, 6), (0, 4, 0)):
        lhs = iterated_eisenstein(idx, Q).derivative_tau()
        rhs = eisenstein_series(idx[0], Q) * iterated_eisenstein(idx[1:], Q)
        assert lhs == rhs, idx


def test_qseries_eval_constants():
    one = QSeriesPoly.constant(1, 5)
    with mp.workdps(40):
        assert abs(qseries_eval(one, mp.mpf("0.3"), 25) - 1) < mp.mpf(10) ** -25
        assert abs(qseries_eval(eisenstein_series(4, 5), 0, 25) - mp.mpf(1) / 240) < mp.mpf(10) ** -25


def test_qseries_eval_matches_divisor_sum():
    q0 = mp.mpf("0.1")
    val = qseries_eval(eisenstein_series(4, 60), q0, 25)
    with mp.workdps(45):
        ref = mp.mpf(1) / 240
        for n in range(1, 61):
            ref += sum(d ** 3 for d in range(1, n + 1) if n % d == 0) * q0 ** n
        assert abs(val - ref) < mp.mpf(10) ** -20


def test_qseries_eval_binds_tau():
    q0 = mp.mpf("0.2")
    with mp.workdps(40):
        tau0 = mp.log(q0) / (2 * mp.mpc(0, mp.pi))
        val = qseries_eval(iterated_eisenstein((0,), 5), q0, 25)
        assert abs(val - tau0) < mp.mpf(10) ** -25


def test_qseries_eval_product_multiplicative():
    Q = 40
    a = eisenstein_series(4, Q)
    b = iterated_eisenstein((6,), Q)
    q0 = mp.mpf("0.05")
    with mp.workdps(45):
        va = qseries_eval(a, q0, 25)
        vb = qseries_eval(b, q0, 25)
        vab = qseries_eval(a * b, q0, 25)
        assert abs(vab - va * vb) < mp.mpf(10) ** -22


def test_qseries_eval_guards():
    with pytest.raises(PreconditionError):
        qseries_eval(QSeriesPoly.constant(1, 5), mp.mpf("0.6"), 20)
    with pytest.raises(PreconditionError):
        qseries_eval(iterated_eisenstein((0,), 5), 0, 20)
    with pytest.raises(NumericBudgetError):
        qseries_eval(eisenstein_series(4, 3), mp.mpf("0.4"), 30)


def test_associator_contract():
    ea = elliptic_associator(2)
    assert (ea.letters, ea.trunc) == (ELLIPTIC_LETTERS, 2)
    assert ea.coefficient(()) == PeriodElem.one()
    assert len(ea.coeffs) == 7
    for w, c in ea.coeffs.items():
        if w:
            assert c == PeriodElem.elliptic(word_symbol(w))
            assert word_symbol(w).weight == len(w)
    with pytest.raises(UnboundSymbolError):
        numeric_eval(ea.coefficient(("A",)), 20)
    with mp.workdps(40):
        ref = qseries_eval(iterated_eisenstein((4,), 30), mp.mpf("0.1"), 20)
        got = numeric_eval(ea.coefficient(("T", "A")), 20,
                           elliptic_bindings={word_symbol(("T", "A")): ref})
        assert abs(got - ref) < mp.mpf(10) ** -18


def test_associator_validates_words():
    with pytest.raises(PreconditionError):
        word_symbol(("T", "B"))
    with pytest.raises(PreconditionError):
        elliptic_associator(-1)
