import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import tateperiods
from tateperiods.errors import PreconditionError
from tateperiods.kz import (
    KZConnection,
    TangentialPoint,
    associator_connection,
    drinfeld_associator,
    fusing_connection_matrix,
    numeric_transport_oracle,
    rotation_monodromy,
)
from tateperiods.mzv import KZ_LETTERS, X0, X1
from tateperiods.ncalg import NCSeries, grouplike_defects, nc_inverse, nc_multiply
from tateperiods.periodring import PeriodElem, numeric_eval

V0 = TangentialPoint(base=Fraction(0), direction=Fraction(1))
V1 = TangentialPoint(base=Fraction(1), direction=Fraction(-1))


def frac_letter(name, N):
    return NCSeries.letter(KZ_LETTERS, N, Fraction(1), name)


def test_tangential_point_validation():
    with pytest.raises(PreconditionError):
        TangentialPoint(base=Fraction(0), direction=Fraction(0))
    with pytest.raises(PreconditionError):
        TangentialPoint(base=Fraction(0), direction=Fraction(1), scale=Fraction(-1))


def test_connection_validation():
    x0 = frac_letter(X0, 2)
    x1 = frac_letter(X1, 2)
    conn = KZConnection({1: -x1, "0": x0}, 2)
    assert conn.finite_points() == [Fraction(0), Fraction(1)]
    # infinity is implied, never a key
    for bad in ("inf", None, float("nan")):
        with pytest.raises(PreconditionError, match="not rational"):
            KZConnection({Fraction(0): x0, bad: -x1}, 2)
    with pytest.raises(PreconditionError):
        KZConnection({Fraction(0): NCSeries.unit(KZ_LETTERS, 2, Fraction(1))}, 2)
    with pytest.raises(PreconditionError, match="alphabet"):
        KZConnection({Fraction(0): x0, Fraction(1): NCSeries.letter(("y",), 2, Fraction(1), "y")}, 2)
    with pytest.raises(PreconditionError, match="at least one"):
        KZConnection({}, 2)


def test_kz_imports_neither_curves_nor_elliptic():
    # kz sits below curves and elliptic, so transport-only callers never load them
    src = str(Path(tateperiods.__file__).resolve().parents[1])
    probe = ("import sys, tateperiods.kz\n"
             "heavy = {'tateperiods.curves', 'tateperiods.elliptic'} & set(sys.modules)\n"
             "sys.exit(' '.join(sorted(heavy)) or None)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_associator_low_weight_coefficients():
    phi = drinfeld_associator(3)
    assert phi.constant_term() == PeriodElem.one()
    assert phi.coefficient((X0,)) == PeriodElem.zero()
    assert phi.coefficient((X1,)) == PeriodElem.zero()
    # sign convention locked by the transport oracle
    assert phi.coefficient((X0, X1)) == -PeriodElem.zeta((2,))
    assert phi.coefficient((X1, X0)) == PeriodElem.zeta((2,))
    assert phi.coefficient((X0, X0)) == PeriodElem.zero()
    assert phi.coefficient((X1, X1)) == PeriodElem.zero()


def test_weight_one_transport_is_log2():
    conn = associator_connection(1)
    T = numeric_transport_oracle(conn, V0, Fraction(1, 2), N=1, precision=30)
    with mp.workdps(45):
        assert abs(T.coefficient((X1,)) - mp.log(2)) < mp.mpf(10) ** -30
        assert abs(T.coefficient((X0,)) + mp.log(2)) < mp.mpf(10) ** -30


def test_oracle_matches_symbolic_associator():
    N, prec = 3, 25
    conn = associator_connection(N)
    phi_num = numeric_transport_oracle(conn, V0, V1, N=N, precision=prec)
    phi_sym = drinfeld_associator(N)
    with mp.workdps(prec + 15):
        for w in set(phi_num.coeffs) | set(phi_sym.coeffs):
            sym = numeric_eval(phi_sym.coefficient(w), prec)
            assert abs(mp.mpc(sym) - mp.mpc(phi_num.coefficient(w))) < mp.mpf(10) ** -20


def test_oracle_path_reversal():
    N, prec = 2, 25
    conn = associator_connection(N)
    fwd = numeric_transport_oracle(conn, V0, V1, N=N, precision=prec)
    bwd = numeric_transport_oracle(conn, V1, V0, N=N, precision=prec)
    with mp.workdps(prec + 15):
        prod = nc_multiply(fwd, bwd)
        for w, c in prod.coeffs.items():
            ref = 1 if w == () else 0
            assert abs(c - ref) < mp.mpf(10) ** -20


def test_oracle_composition():
    N, prec = 2, 25
    conn = associator_connection(N)
    mid = Fraction(1, 3)
    left = numeric_transport_oracle(conn, V0, mid, N=N, precision=prec)
    right = numeric_transport_oracle(conn, mid, V1, N=N, precision=prec)
    whole = numeric_transport_oracle(conn, V0, V1, N=N, precision=prec)
    with mp.workdps(prec + 15):
        prod = nc_multiply(left, right)
        for w in set(prod.coeffs) | set(whole.coeffs):
            assert abs(prod.coefficient(w) - whole.coefficient(w)) < mp.mpf(10) ** -20


def test_oracle_scale_shifts_by_log():
    # doubling the outgoing scale multiplies the transport by exp(-X0 log 2) on the left
    conn = associator_connection(1)
    scaled = TangentialPoint(base=Fraction(0), direction=Fraction(1), scale=Fraction(2))
    T1 = numeric_transport_oracle(conn, V0, Fraction(1, 2), N=1, precision=25)
    T2 = numeric_transport_oracle(conn, scaled, Fraction(1, 2), N=1, precision=25)
    with mp.workdps(40):
        diff = T2.coefficient((X0,)) - T1.coefficient((X0,))
        assert abs(diff + mp.log(2)) < mp.mpf(10) ** -20


def test_oracle_rejects_bad_paths():
    conn = associator_connection(2)
    with pytest.raises(PreconditionError):
        numeric_transport_oracle(conn, V0, V0, N=2, precision=20)
    with pytest.raises(PreconditionError):
        numeric_transport_oracle(conn, TangentialPoint(base=Fraction(-1)), Fraction(2), N=2, precision=20)
    outward = TangentialPoint(base=Fraction(0), direction=Fraction(-1))
    with pytest.raises(PreconditionError):
        numeric_transport_oracle(conn, outward, Fraction(1, 2), N=2, precision=20)


def test_fusing_identity_substitution():
    N = 4
    phi = drinfeld_associator(N)
    x0 = frac_letter(X0, N)
    x1 = frac_letter(X1, N)
    assert fusing_connection_matrix(x0, x1, N) == phi


def test_fusing_with_zero_second_argument_is_unit():
    N = 4
    x0 = frac_letter(X0, N)
    zero = NCSeries.zero(KZ_LETTERS, N, Fraction(1))
    out = fusing_connection_matrix(x0, zero, N)
    assert out == NCSeries.unit(KZ_LETTERS, N, PeriodElem.one())


def test_fusing_rejects_constant_terms():
    N = 2
    with pytest.raises(PreconditionError):
        fusing_connection_matrix(NCSeries.unit(KZ_LETTERS, N, Fraction(1)), frac_letter(X1, N), N)


def test_rotation_monodromy_small_cases():
    N = 2
    x = frac_letter(X0, N)
    assert rotation_monodromy(x, 0, N) == NCSeries.unit(KZ_LETTERS, N, PeriodElem.one())
    r1 = rotation_monodromy(x, 1, N)
    ipi = PeriodElem.ipi()
    assert r1.constant_term() == PeriodElem.one()
    assert r1.coefficient((X0,)) == ipi
    assert r1.coefficient((X0, X0)) == ipi * ipi * Fraction(1, 2)
    assert nc_multiply(r1, r1) == rotation_monodromy(x, 2, N)


def test_associator_is_grouplike_numerically():
    phi = drinfeld_associator(6)
    prec = 30
    with mp.workdps(prec + 15):
        for _w1, _w2, defect in grouplike_defects(phi, max_total=6):
            if defect == PeriodElem.zero():
                continue
            assert abs(mp.mpc(numeric_eval(defect, prec))) < mp.mpf(10) ** -25


def extra_pole_connection(N):
    # KZ letters with two more poles off [0, 1]; the residue at -1 has a
    # weight-two word so the commutator solve runs past weight one.
    x0 = frac_letter(X0, N)
    x1 = frac_letter(X1, N)
    return KZConnection({Fraction(0): x0, Fraction(1): -x1,
                         Fraction(-1): x1 - x0.scale(Fraction(1, 2)) + nc_multiply(x0, x1),
                         Fraction(2): x0 + x1}, N)


def assert_series_close(a, b, tol):
    for w in set(a.coeffs) | set(b.coeffs):
        assert abs(a.coefficient(w) - b.coefficient(w)) < tol, w


def test_oracle_extra_poles_composition_and_reversal():
    N, prec = 3, 25
    conn = extra_pole_connection(N)
    mid = Fraction(1, 3)
    whole = numeric_transport_oracle(conn, V0, V1, N=N, precision=prec)
    left = numeric_transport_oracle(conn, V0, mid, N=N, precision=prec)
    right = numeric_transport_oracle(conn, mid, V1, N=N, precision=prec)
    back = numeric_transport_oracle(conn, V1, V0, N=N, precision=prec)
    with mp.workdps(prec + 15):
        tol = mp.mpf(10) ** -20
        assert_series_close(nc_multiply(left, right), whole, tol)
        assert_series_close(nc_multiply(whole, back), NCSeries.unit(KZ_LETTERS, N, mp.mpf(1)), tol)


def test_oracle_regular_to_regular():
    N, prec = 3, 25
    conn = extra_pole_connection(N)
    a, b = Fraction(1, 4), Fraction(3, 4)
    direct = numeric_transport_oracle(conn, a, b, N=N, precision=prec)
    to_a = numeric_transport_oracle(conn, V0, a, N=N, precision=prec)
    to_b = numeric_transport_oracle(conn, V0, b, N=N, precision=prec)
    with mp.workdps(prec + 15):
        tol = mp.mpf(10) ** -20
        assert_series_close(nc_multiply(nc_inverse(to_a), to_b), direct, tol)
        # weight one: sum over poles q of (residue letter) * log((b - q) / (a - q))
        ratios = {q: (b - q) / (a - q) for q in (0, 1, -1, 2)}
        log_ratio = {q: mp.log(mp.mpf(r.numerator) / r.denominator) for q, r in ratios.items()}
        assert abs(direct.coefficient((X0,))
                   - (log_ratio[0] - log_ratio[-1] / 2 + log_ratio[2])) < tol
        assert abs(direct.coefficient((X1,))
                   - (-log_ratio[1] + log_ratio[-1] + log_ratio[2])) < tol
