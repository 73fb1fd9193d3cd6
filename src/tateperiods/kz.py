"""Transport for connections with regular singularities on the rational line.

The connection is d f = f . sum_p X_p dz/(z - p) (right multiplication, factors
multiply in path order).  The Drinfeld associator is assembled symbolically
from shuffle-regularized words; `numeric_transport_oracle` solves the actual
horizontal-section problem at arbitrary precision and is the package's
independent check on every sign and ordering convention.

Oracle scheme: one Taylor recursion serves singular and regular points alike.
Around a point c the normalized solution factors as exp(X_c log u) . H(z) with
u the local parameter of the tangential point, X_c the residue at c (zero at a
regular point) and H analytic; its coefficients come from a weight-graded
recursion that carries one geometric accumulator per pole.  The path is
covered by such local series, each evaluated at most a fixed fraction of the
way to the nearest other pole: one from each singular endpoint, then regular
Taylor steps in between.  Every transport runs twice with different step
fractions and the runs must agree to the precision budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import mpmath as mp

from .errors import NumericBudgetError, PreconditionError
from .mzv import KZ_LETTERS, X0, X1, shuffle_regularize
from .ncalg import NCSeries, _is_zero, nc_exp, nc_inverse, nc_multiply, substitute_letters
from .periodring import PeriodElem, to_mp


@dataclass(frozen=True)
class TangentialPoint:
    """Base point with a tangential direction and a positive scale.

    The direction must point into the path the transport actually takes.
    """

    base: Fraction
    direction: Fraction = Fraction(1)
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        object.__setattr__(self, "direction", Fraction(self.direction))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.direction == 0:
            raise PreconditionError("tangential direction must be nonzero")
        if self.scale <= 0:
            raise PreconditionError("tangential scale must be positive")


@dataclass(frozen=True)
class KZConnection:
    """Residue series at finitely many rational points; the residue at
    infinity is implied (it is minus their sum) and never stored."""

    residues: Mapping[Fraction, NCSeries]
    trunc: int
    letters: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        res: dict[Fraction, NCSeries] = {}
        letters = None
        for p, x in self.residues.items():
            try:
                key = Fraction(p)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise PreconditionError(f"singular point {p!r} is not rational") from None
            if letters is None:
                letters = x.letters
            elif x.letters != letters:
                raise PreconditionError("all residues must share one alphabet")
            if not _is_zero(x.constant_term()):
                raise PreconditionError(f"residue at {key} must have zero constant term")
            res[key] = x.truncate(self.trunc)
        if letters is None:
            raise PreconditionError("a connection needs at least one residue")
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "letters", letters)

    def finite_points(self) -> list[Fraction]:
        return sorted(self.residues)


def associator_connection(N: int) -> KZConnection:
    """Residues x0 at 0 and -x1 at 1 under the dz/z, dz/(1-z) dictionary."""
    one = Fraction(1)
    x0 = NCSeries.letter(KZ_LETTERS, N, one, X0)
    x1 = NCSeries.letter(KZ_LETTERS, N, one, X1)
    return KZConnection({Fraction(0): x0, Fraction(1): -x1}, N)


def drinfeld_associator(N: int) -> NCSeries:
    """Regularized transport from the unit tangent at 0 to the inward tangent at 1."""
    coeffs = {(): PeriodElem.one()}
    words = [()]
    for _ in range(N):
        words = [w + (l,) for w in words for l in KZ_LETTERS]
        for w in words:
            val = shuffle_regularize(w)
            if val:
                coeffs[w] = val
    return NCSeries(KZ_LETTERS, N, PeriodElem.one(), coeffs)


def fusing_connection_matrix(X: NCSeries, Y: NCSeries, N: int) -> NCSeries:
    """Substitute X for x0 and Y for x1 in the associator."""
    for arg, name in ((X, "X"), (Y, "Y")):
        if not _is_zero(arg.constant_term()):
            raise PreconditionError(f"{name} must have zero constant term (weight >= 1)")
    images = {X0: _over_period_ring(X).truncate(N), X1: _over_period_ring(Y).truncate(N)}
    return substitute_letters(drinfeld_associator(N), images)


def rotation_monodromy(X: NCSeries, k: int, N: int) -> NCSeries:
    """nc_exp(k * i*pi * X) over the period ring."""
    if not _is_zero(X.constant_term()):
        raise PreconditionError("rotation argument must have zero constant term")
    lifted = _over_period_ring(X).truncate(N)
    return nc_exp(lifted.scale(PeriodElem.ipi() * k))


def _over_period_ring(x: NCSeries) -> NCSeries:
    if isinstance(x.one, PeriodElem):
        return x
    return x.map_coefficients(lambda c: PeriodElem.from_rational(c), one=PeriodElem.one())


# ---------------------------------------------------------------------------
# Numeric oracle.
# ---------------------------------------------------------------------------

# Step ratios of the coarse and the fine run: every local series is evaluated
# at most this fraction of its radius of convergence away from its centre.
STEP_RATIOS = (Fraction(1, 2), Fraction(1, 3))
# A local series stops after this many consecutive orders below the target.
QUIET_ORDERS = 4


def numeric_transport_oracle(conn: KZConnection, frm, to, N: int, precision: int) -> NCSeries:
    """Transport series along the straight segment, with tangential
    regularization at singular endpoints; coefficients are arbitrary-precision
    numbers certified by a two-resolution agreement check."""
    frm = _as_tangential(frm, toward=to)
    to = _as_tangential(to, toward=frm)
    if frm.base == to.base:
        raise PreconditionError("degenerate transport path")
    sings = conn.finite_points()
    lo, hi = min(frm.base, to.base), max(frm.base, to.base)
    for p in sings:
        if lo < p < hi:
            raise PreconditionError(f"path passes through the singular point {p}")
    sign = 1 if to.base > frm.base else -1
    for pt, into, what in ((frm, sign, "outgoing"), (to, -sign, "incoming")):
        if pt.base in sings and into * pt.direction < 0:
            raise PreconditionError(f"{what} tangential direction must point into the path")
    dps = precision + 18
    with mp.workdps(dps):
        unit = NCSeries.unit(conn.letters, N, mp.mpf(1))
        res = {p: _to_numeric(x, N, unit.one) for p, x in conn.residues.items()}
        eps = mp.mpf(10) ** (-(dps - 4)) / 4
        coarse, fine = (_transport(res, frm, to, unit, eps, rho) for rho in STEP_RATIOS)
        tol = mp.mpf(10) ** (-(precision + 2))
        for w in set(coarse.coeffs) | set(fine.coeffs):
            if abs(coarse.coefficient(w) - fine.coefficient(w)) > tol:
                raise NumericBudgetError(
                    f"transport resolutions disagree at word {w}; raise precision budget")
        return fine


def _as_tangential(x, toward) -> TangentialPoint:
    if isinstance(x, TangentialPoint):
        return x
    base = Fraction(x)
    other = toward.base if isinstance(toward, TangentialPoint) else Fraction(toward)
    direction = Fraction(1) if other >= base else Fraction(-1)
    return TangentialPoint(base=base, direction=direction)


def _transport(res: dict, frm: TangentialPoint, to: TangentialPoint, unit: NCSeries, eps,
               rho: Fraction) -> NCSeries:
    """Product of local solutions from `frm` to `to`, each evaluated at most
    `rho` of the distance from its centre to the nearest other pole."""
    sign = 1 if to.base > frm.base else -1
    length = abs(to.base - frm.base)

    def reach(z: Fraction) -> Fraction:
        return rho * min((abs(z - p) for p in res if p != z), default=length / rho)

    # With both endpoints singular, their series meet at most half way.
    share = length / 2 if frm.base in res and to.base in res else length
    factors: list[NCSeries] = []
    tail: list[NCSeries] = []
    z, end = frm.base, to.base
    if frm.base in res:
        t = sign * min(reach(frm.base), share)
        factors = [nc_exp(res[frm.base].scale(_log_parameter(frm, t))),
                   _local_series(res, frm.base, t, unit, eps)]
        z = frm.base + t
    if to.base in res:
        t = -sign * min(reach(to.base), share)
        tail = [nc_inverse(_local_series(res, to.base, t, unit, eps)),
                nc_exp(res[to.base].scale(-_log_parameter(to, t)))]
        end = to.base + t
    while z != end:
        h = min(reach(z), abs(end - z))
        factors.append(_local_series(res, z, sign * h, unit, eps))
        z += sign * h
    factors.extend(tail)

    out = unit
    for f in factors:
        out = nc_multiply(out, f)
    return out


def _log_parameter(pt: TangentialPoint, t: Fraction):
    """log u at z = base + t, with u = t / (direction * scale) the tangential parameter."""
    return mp.log(to_mp(t / (pt.direction * pt.scale)))


def _to_numeric(x: NCSeries, N: int, one) -> NCSeries:
    return x.truncate(N).map_coefficients(
        lambda c: to_mp(c.as_rational() if isinstance(c, PeriodElem) else c), one=one)


def _local_series(res: dict, c: Fraction, t: Fraction, unit: NCSeries, eps) -> NCSeries:
    """H(t) = sum_m H_m t^m, where f(c + t) = exp(X_c log u) . H(t) is the
    solution normalized at c; X_c = 0 when c is a regular point.

    Expanding dz/(z - q) around c, order m of the connection reads
    m H_m - [H_m, X_c] = -sum_{q != c} A_q X_q with A_q = sum_{j<m} H_j / d_q^(m-j)
    and d_q = q - c.  Each A_q is a geometric accumulator, A_q <- (A_q + H_m) / d_q,
    so an order costs one product per pole; the commutator equation is solved
    by its Neumann series, which ends because X_c raises the weight.  The
    recursion runs on G_m = H_m t^m, so A_q is scaled by t / d_q instead."""
    X_c = res.get(c)
    poles = [(X_q, to_mp(t / (q - c))) for q, X_q in res.items() if q != c]
    zero = NCSeries.zero(unit.letters, unit.trunc, unit.one)
    term = value = unit
    acc = [zero] * len(poles)
    quiet = m = 0
    while quiet < QUIET_ORDERS:
        m += 1
        acc = [(A + term).scale(r) for A, (_X, r) in zip(acc, poles)]
        rhs = zero
        for A, (X_q, _r) in zip(acc, poles):
            rhs = rhs + nc_multiply(A, X_q)
        term = correction = rhs.scale(-unit.one / m)
        while X_c is not None and not correction.is_zero():
            correction = (nc_multiply(correction, X_c) - nc_multiply(X_c, correction)).scale(unit.one / m)
            term = term + correction
        value = value + term
        size = max((abs(v) for v in term.coeffs.values()), default=0)
        quiet = quiet + 1 if size < eps else 0
    return value
