import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateperiods.errors import ParseError, PreconditionError, UnboundSymbolError
from tateperiods.periodring import (
    EllipticSymbol,
    PeriodElem,
    PeriodMonomial,
    check_composition,
    is_admissible,
    numeric_eval,
    parse_period,
    render_period,
)


def random_elem(rng):
    out = PeriodElem.zero()
    for _ in range(rng.randint(1, 4)):
        m = PeriodMonomial(
            ipi_power=rng.randint(-2, 3),
            zeta_factors=tuple(
                (1,) * rng.randint(0, 1) + (rng.randint(2, 3),)
                for _ in range(rng.randint(0, 2))
            ),
            elliptic_factors=tuple(
                EllipticSymbol(indices=(rng.choice([0, 4, 6]),))
                for _ in range(rng.randint(0, 1))
            ),
            log_factors=tuple(rng.sample(["tau", "s_e1", "s_e2"], rng.randint(0, 2))),
        )
        out = out + PeriodElem({m: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    return out


def test_ipi_powers_multiply():
    assert PeriodElem.ipi(1) * PeriodElem.ipi(2) == PeriodElem.ipi(3)


def test_unit_is_neutral():
    z2 = PeriodElem.zeta((2,))
    assert z2 * PeriodElem.one() == z2


def test_distributivity_example():
    lhs = (PeriodElem.zeta((2,)) + PeriodElem.ipi()) * PeriodElem.ipi()
    assert lhs == PeriodElem.zeta((2,)) * PeriodElem.ipi() + PeriodElem.ipi(2)


def test_ring_axioms_random():
    rng = random.Random(21)
    for _ in range(10):
        a, b, c = (random_elem(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_composition_admissibility():
    assert is_admissible((1, 2))
    assert not is_admissible((2, 1))
    with pytest.raises(PreconditionError):
        check_composition(())
    with pytest.raises(PreconditionError):
        check_composition((0, 2))
    with pytest.raises(PreconditionError):
        PeriodElem.zeta((2, 1))


def test_elliptic_symbol_validation():
    sym = EllipticSymbol(indices=(4, 0))
    assert sym.kind == "iterated-eisenstein"
    assert sym.weight == 4
    with pytest.raises(PreconditionError):
        EllipticSymbol(indices=(3,))
    with pytest.raises(PreconditionError):
        EllipticSymbol(name="nu")
    opaque = EllipticSymbol(name="nu", weight=3)
    assert opaque.kind == "opaque-emzv"
    assert opaque.render() == "emzv(nu;3)"


def test_monomial_render_example():
    m = PeriodMonomial(
        ipi_power=2,
        zeta_factors=((1, 2),),
        elliptic_factors=(EllipticSymbol(indices=(4, 0)),),
    )
    assert m.render() == "(i*pi)^2 * zeta(1,2) * E(4,0)"


def test_parse_render_round_trip_random():
    rng = random.Random(33)
    for _ in range(20):
        x = random_elem(rng)
        assert parse_period(render_period(x)) == x


symbols = st.one_of(
    st.builds(EllipticSymbol, indices=st.sampled_from([(0,), (4,), (4, 0), (6, 4)])),
    st.builds(EllipticSymbol, name=st.sampled_from(["e_T", "e_AT", "nu"]), weight=st.integers(0, 4)),
)
monomials = st.builds(
    PeriodMonomial,
    ipi_power=st.integers(-3, 3),
    zeta_factors=st.lists(st.sampled_from([(2,), (3,), (1, 2), (2, 3), (1, 1, 2)]), max_size=2).map(tuple),
    elliptic_factors=st.lists(symbols, max_size=2).map(tuple),
    log_factors=st.lists(st.sampled_from(["tau", "s_e1", "s_e0"]), max_size=2).map(tuple),
)
elements = st.dictionaries(monomials, st.fractions(-9, 9, max_denominator=12), max_size=5).map(PeriodElem)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(elements)
def test_render_parse_round_trip_property(x):
    text = render_period(x)
    assert parse_period(text) == x
    assert render_period(parse_period(text)) == text


def test_parse_specific_strings():
    x = parse_period("(i*pi)^2 * zeta(1,2) * E(4,0)")
    assert render_period(x) == "(i*pi)^2 * zeta(1,2) * E(4,0)"
    assert parse_period("0") == PeriodElem.zero()
    assert parse_period("-3/2 * tau + 1") == PeriodElem.one() - PeriodElem.tau() * Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_period("zeta(2,1)")
    with pytest.raises(ParseError):
        parse_period("2 +")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_period("7/0 * zeta(2)")
    with pytest.raises(ParseError, match="must be a string"):
        parse_period(3)


def test_numeric_eval_ipi_square():
    val = numeric_eval(PeriodElem.ipi(2), 40)
    with mp.workdps(50):
        assert abs(val + mp.pi ** 2) < mp.mpf(10) ** -40


def test_numeric_eval_unit_and_zeta():
    assert numeric_eval(PeriodElem.one(), 30) == 1
    combo = PeriodElem.zeta((2,)) * 6 + PeriodElem.ipi(2)
    val = numeric_eval(combo, 35)
    assert abs(val) < mp.mpf(10) ** -30


def test_numeric_eval_is_multiplicative():
    rng = random.Random(55)
    prec = 30
    with mp.workdps(prec + 10):
        for _ in range(5):
            a, b = random_elem(rng), random_elem(rng)
            bindings = {"tau": mp.mpc(0.1, 0.9), "s_e1": mp.mpf(0.25), "s_e2": mp.mpf("0.5")}
            ebind = {EllipticSymbol(indices=(k,)): mp.mpf(1) / (k + 1) for k in (0, 4, 6)}
            va = numeric_eval(a, prec, bindings, ebind)
            vb = numeric_eval(b, prec, bindings, ebind)
            vab = numeric_eval(a * b, prec, bindings, ebind)
            assert abs(vab - va * vb) < mp.mpf(10) ** -(prec - 5) * (1 + abs(va) * abs(vb))


def test_numeric_eval_unbound_symbols():
    with pytest.raises(UnboundSymbolError):
        numeric_eval(PeriodElem.log("s_e1"), 20)
    with pytest.raises(UnboundSymbolError):
        numeric_eval(PeriodElem.elliptic(EllipticSymbol(name="nu", weight=2)), 20)


def test_negative_ipi_power_round_trip():
    x = PeriodElem.ipi(-1) * PeriodElem.log("s_e1")
    s = render_period(x)
    assert s == "(i*pi)^-1 * log(s_e1)"
    assert parse_period(s) == x
    val = numeric_eval(x, 30, bindings={"s_e1": mp.mpf(2)})
    with mp.workdps(40):
        assert abs(val - 2 / mp.mpc(0, mp.pi)) < mp.mpf(10) ** -30
