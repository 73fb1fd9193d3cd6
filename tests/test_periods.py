from fractions import Fraction

import mpmath as mp
import pytest

from tateperiods.curves import basic_graph, residue_assignment
from tateperiods.elliptic import word_symbol
from tateperiods.errors import ParseError, PreconditionError, UnboundSymbolError
from tateperiods.kz import (
    KZConnection,
    TangentialPoint,
    fusing_connection_matrix,
    numeric_transport_oracle,
)
from tateperiods.mzv import KZ_LETTERS, X0, X1
from tateperiods.ncalg import NCSeries, lie_bracket, nc_exp
from tateperiods.periodring import PeriodElem, numeric_eval
from tateperiods.periods import (
    PathSpec,
    PeriodSeries,
    assemble_period,
    numeric_evaluate_period,
    path_from_list,
    ring_membership_check,
)


def assignment(n=2, N=4):
    return residue_assignment(basic_graph(n), [], N)


def period_letter(letters, N, name):
    return NCSeries.letter(letters, N, PeriodElem.one(), name)


def loop_bracket(letters, N):
    return lie_bracket(period_letter(letters, N, "T"), period_letter(letters, N, "A"))


def lift(ra, h, N):
    coeffs = {w: PeriodElem.from_rational(c) for w, c in ra.residue(h).coeffs.items()}
    return NCSeries(ra.letters, N, PeriodElem.one(), coeffs)


def test_empty_path_is_unit():
    ra = assignment()
    p = assemble_period(ra, PathSpec(()), 3, 8)
    assert p.series == NCSeries.unit(ra.letters, 3, PeriodElem.one())
    assert p.fusing_parameters == ()
    assert ring_membership_check(p)["passes"]


def test_single_rotation_example():
    ra = assignment()
    for N in (2, 4):
        p = assemble_period(ra, [("rotate", "e", 1)], N, 8)
        xe = -loop_bracket(ra.letters, N)
        assert p.series == nc_exp(xe.scale(PeriodElem.ipi()))
    p4 = assemble_period(ra, [("rotate", "e", 1)], 4, 8)
    xe = -loop_bracket(ra.letters, 4)
    hand = (NCSeries.unit(ra.letters, 4, PeriodElem.one())
            + xe.scale(PeriodElem.ipi())
            + (xe * xe).scale(PeriodElem.ipi(2) * Fraction(1, 2)))
    assert p4.series == hand


def test_rotation_inverse_is_unit():
    ra = assignment()
    p = assemble_period(ra, [("rotate", "t1", 3), ("rotate", "t1", -3)], 4, 8)
    assert p.series == NCSeries.unit(ra.letters, 4, PeriodElem.one())


def test_fusing_factor_shape():
    ra = assignment()
    p = assemble_period(ra, [("fuse", "e")], 4, 8)
    assert p.fusing_parameters == ("s_e",)
    y = lift(ra, "e", 4)
    expected = fusing_connection_matrix(loop_bracket(ra.letters, 4), y, 4)
    expected = expected * nc_exp(y.scale(-PeriodElem.log("s_e")))
    assert p.series == expected
    assert ring_membership_check(p)["passes"]


def test_vertex_associator_factor():
    ra = assignment()
    p = assemble_period(ra, [("associator", "v0", ("t1", "t2"))], 3, 8)
    assert p.series == fusing_connection_matrix(lift(ra, "t1", 3), lift(ra, "t2", 3), 3)
    assert ring_membership_check(p)["passes"]


def test_loop_traversal():
    ra = assignment()
    p = assemble_period(ra, [("loop", 1)], 2, 8)
    assert p.series.coefficient(("T",)) == PeriodElem.elliptic(word_symbol(("T",)))
    assert p.series.coefficient(("T", "A")) == PeriodElem.elliptic(word_symbol(("T", "A")))
    both = assemble_period(ra, [("loop", 1), ("loop", -1)], 3, 8)
    assert both.series == NCSeries.unit(ra.letters, 3, PeriodElem.one())
    assert ring_membership_check(p)["passes"]


def test_concatenation_functoriality():
    ra = assignment()
    first = [("rotate", "e", 1), ("fuse", "e")]
    second = [("loop", 1), ("rotate", "t1", -2)]
    pa = assemble_period(ra, first, 3, 8)
    pb = assemble_period(ra, second, 3, 8)
    pab = assemble_period(ra, first + second, 3, 8)
    assert pab.series == pa.series * pb.series


def test_membership_flags_bad_monomials():
    ra = assignment()
    letters = ra.letters
    bad = (PeriodElem.ipi(-1)
           + PeriodElem.one() * PeriodElem.log("s_undeclared"))
    series = NCSeries(letters, 2, PeriodElem.one(),
                      {(): PeriodElem.one(), ("T",): bad})
    report = ring_membership_check(PeriodSeries(ra.graph, 2, 8, series, ()))
    assert not report["passes"]
    reasons = {v["reason"] for v in report["violations"]}
    assert any("negative i*pi power" in r for r in reasons)
    assert any("s_undeclared" in r for r in reasons)
    assert all(v["word"] == ("T",) for v in report["violations"])


def test_move_validation():
    with pytest.raises(PreconditionError, match="unknown move kind"):
        PathSpec((("twist", "e"),))
    with pytest.raises(PreconditionError, match="malformed rotate"):
        PathSpec((("rotate", "e"),))
    with pytest.raises(PreconditionError, match="integer"):
        PathSpec((("rotate", "e", True),))
    with pytest.raises(PreconditionError, match="direction"):
        PathSpec((("loop", 2),))
    with pytest.raises(PreconditionError, match="must differ"):
        PathSpec((("associator", "v0", ("t1", "t1")),))


def test_assembly_preconditions():
    ra = assignment()
    with pytest.raises(PreconditionError, match="unknown edge"):
        assemble_period(ra, [("fuse", "z")], 3, 8)
    with pytest.raises(PreconditionError, match="traverse it with a loop move"):
        assemble_period(ra, [("fuse", "l")], 3, 8)
    with pytest.raises(PreconditionError, match="not based"):
        assemble_period(ra, [("associator", "v0", ("t1", "-e"))], 3, 8)
    with pytest.raises(PreconditionError, match="unknown vertex"):
        assemble_period(ra, [("associator", "w", ("t1", "t2"))], 3, 8)
    with pytest.raises(PreconditionError, match="weight budget"):
        assemble_period(ra, [("rotate", "e", 1)], 1, 8)
    with pytest.raises(PreconditionError, match="weight budget"):
        assemble_period(ra, [("fuse", "e")], 1, 8)
    flat = residue_assignment(basic_graph(4), [], 3)
    with pytest.raises(PreconditionError, match="trivalent"):
        assemble_period(flat, [], 3, 8)


def test_path_from_list():
    ps = path_from_list([["rotate", "e", 1], ["fuse", "e"], ["loop", -1],
                         ["associator", "v0", ["t1", "t2"]]])
    assert ps.moves == (("rotate", "e", 1), ("fuse", "e", "s_e"), ("loop", -1),
                        ("associator", "v0", ("t1", "t2")))
    with pytest.raises(ParseError, match="list of moves"):
        path_from_list({"moves": []})
    with pytest.raises(ParseError, match="each move"):
        path_from_list(["rotate"])
    with pytest.raises(ParseError, match="unknown move kind"):
        path_from_list([["spin", "e", 1]])


def test_numeric_unit_and_rotation():
    ra = assignment()
    unit = assemble_period(ra, [], 3, 8)
    out = numeric_evaluate_period(unit, {}, {}, None, 25)
    assert out.coefficient(()) == 1
    assert all(w == () for w in out.coeffs)
    rot = assemble_period(ra, [("rotate", "e", 1)], 3, 8)
    got = numeric_evaluate_period(rot, {}, {}, None, 25)
    with mp.workdps(35):
        T = NCSeries.letter(ra.letters, 3, mp.mpc(1), "T")
        A = NCSeries.letter(ra.letters, 3, mp.mpc(1), "A")
        direct = nc_exp((-lie_bracket(T, A)).scale(mp.mpc(0, mp.pi)))
        for w in set(got.coeffs) | set(direct.coeffs):
            assert abs(got.coefficient(w) - direct.coefficient(w)) < mp.mpf(10) ** -20


def test_numeric_regime_and_bindings():
    ra = assignment()
    rot = assemble_period(ra, [("rotate", "e", 1)], 2, 8)
    with pytest.raises(PreconditionError, match="analytic regime"):
        numeric_evaluate_period(rot, {"e": Fraction(1, 2)}, {}, None, 20)
    with pytest.raises(PreconditionError, match="analytic regime"):
        numeric_evaluate_period(rot, {}, {"s_e": 0}, None, 20)
    fused = assemble_period(ra, [("fuse", "e")], 3, 8)
    with pytest.raises(UnboundSymbolError):
        numeric_evaluate_period(fused, {}, {}, None, 20)
    out = numeric_evaluate_period(fused, {}, {"s_e": Fraction(1, 10)}, None, 20)
    assert out.coefficient(()) == 1


def test_numeric_loop_bindings_and_q0():
    ra = assignment()
    loop = assemble_period(ra, [("loop", 1)], 1, 8)
    for q0 in (Fraction(2, 5), 0):
        with pytest.raises(PreconditionError, match="analytic regime"):
            numeric_evaluate_period(loop, {}, {}, q0, 20)
    # neither an in-regime q0 nor the loop edge's y binds a loop symbol
    for y, q0 in (({}, None), ({}, Fraction(1, 10)), ({"l": Fraction(1, 10)}, None)):
        with pytest.raises(UnboundSymbolError):
            numeric_evaluate_period(loop, y, {}, q0, 20)
    bound = numeric_evaluate_period(loop, {}, {}, None, 20,
                                    elliptic_bindings={word_symbol(("T",)): 2,
                                                       word_symbol(("A",)): 3})
    assert bound.coefficient(("T",)) == 2
    assert bound.coefficient(("A",)) == 3


def test_genus0_fusing_matches_transport():
    N = 3
    precision = 30
    one = Fraction(1)
    X = NCSeries.letter(KZ_LETTERS, N, one, X0)
    Y = NCSeries.letter(KZ_LETTERS, N, one, X1)
    lifted = Y.map_coefficients(PeriodElem.from_rational, one=PeriodElem.one())
    factor = fusing_connection_matrix(X, Y, N) * nc_exp(lifted.scale(-PeriodElem.log("s")))
    conn = KZConnection({Fraction(0): X, Fraction(1): -Y}, N)
    start = TangentialPoint(base=Fraction(0), direction=Fraction(1))
    target = TangentialPoint(base=Fraction(1), direction=Fraction(-1), scale=Fraction(1, 10))
    oracle = numeric_transport_oracle(conn, start, target, N, precision)
    with mp.workdps(precision + 15):
        bindings = {"s": mp.log(mp.mpf(1) / 10)}
        for w in set(oracle.coeffs) | set(factor.coeffs):
            mine = numeric_eval(factor.coefficient(w), precision, bindings=bindings)
            assert abs(mine - oracle.coefficient(w)) < mp.mpf(10) ** -15
