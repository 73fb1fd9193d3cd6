"""Tate-curve side: the Hain homomorphism into Q<<T,A>>, Eisenstein q-series,
iterated Eisenstein integrals from the cusp, and the symbolic elliptic
associator, whose opaque coefficients evaluate only through explicit bindings.

q-series live in `QSeriesPoly`: finitely many terms q^n tau^m with PeriodElem
coefficients, truncated in q at a declared order.  tau is the formal modular
variable; numeric evaluation binds it to log(q0)/(2*pi*i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import mpmath as mp

from .errors import NumericBudgetError, PreconditionError
from .ncalg import NCSeries, Word, ad_action, bernoulli_numbers, bernoulli_series, lie_bracket
from .periodring import GUARD_DIGITS, EllipticSymbol, PeriodElem, numeric_eval, render_period

T_LETTER = "T"
A_LETTER = "A"
ELLIPTIC_LETTERS = (T_LETTER, A_LETTER)

HAIN_X0 = "x0"
HAIN_X1 = "x1"
HAIN_XINF = "xinf"


def hain_hom(N: int) -> dict[str, NCSeries]:
    """Images of the three puncture letters in the free Lie algebra on T, A.

    x1 goes to [T,A]; x0 and xinf are the Bernoulli operators T/(e^T - 1) and
    T/(e^-T - 1) applied to A through the adjoint action.  The three images
    sum to zero identically (only odd Bernoulli number B_1 survives the
    difference of the two operator signs).
    """
    if N < 1:
        raise PreconditionError("hain_hom needs truncation >= 1")
    one = Fraction(1)
    A = NCSeries.letter(ELLIPTIC_LETTERS, N, one, A_LETTER)
    T = NCSeries.letter(ELLIPTIC_LETTERS, N, one, T_LETTER)
    B = bernoulli_numbers(N)
    flipped = NCSeries((T_LETTER,), N, one,
                       {(T_LETTER,) * n: -((-1) ** n) * B[n] / math.factorial(n)
                        for n in range(N + 1)})
    return {
        HAIN_X0: ad_action(bernoulli_series(N), A, N),
        HAIN_X1: lie_bracket(T, A),
        HAIN_XINF: ad_action(flipped, A, N),
    }


@dataclass(frozen=True)
class QSeriesPoly:
    """Polynomial in q (truncated at `order`) and the tau symbol, with period
    coefficients keyed by (q power, tau power)."""

    order: int
    coeffs: Mapping[tuple[int, int], PeriodElem] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 0:
            raise PreconditionError("q-order must be >= 0")
        clean: dict[tuple[int, int], PeriodElem] = {}
        for (n, m), c in self.coeffs.items():
            if n < 0 or m < 0:
                raise PreconditionError(f"negative q or tau power ({n},{m})")
            if n > self.order:
                continue
            if not isinstance(c, PeriodElem):
                c = PeriodElem.from_rational(c)
            if c:
                clean[(n, m)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def constant(cls, c, order: int) -> "QSeriesPoly":
        return cls(order, {(0, 0): c if isinstance(c, PeriodElem) else PeriodElem.from_rational(c)})

    def coefficient(self, q_pow: int, tau_pow: int = 0) -> PeriodElem:
        return self.coeffs.get((q_pow, tau_pow), PeriodElem.zero())

    def tau_degree(self) -> int:
        return max((m for (_n, m) in self.coeffs), default=0)

    def __add__(self, other: "QSeriesPoly") -> "QSeriesPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return QSeriesPoly(min(self.order, other.order), out)

    def __sub__(self, other: "QSeriesPoly") -> "QSeriesPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "QSeriesPoly") -> "QSeriesPoly":
        order = min(self.order, other.order)
        out: dict[tuple[int, int], PeriodElem] = {}
        for (n1, m1), c1 in self.coeffs.items():
            for (n2, m2), c2 in other.coeffs.items():
                if n1 + n2 > order:
                    continue
                k = (n1 + n2, m1 + m2)
                prod = c1 * c2
                out[k] = out[k] + prod if k in out else prod
        return QSeriesPoly(order, out)

    def scale(self, c) -> "QSeriesPoly":
        if not isinstance(c, PeriodElem):
            c = PeriodElem.from_rational(c)
        return QSeriesPoly(self.order, {k: v * c for k, v in self.coeffs.items()})

    def derivative_tau(self) -> "QSeriesPoly":
        """d/dtau: q^n -> 2*pi*i*n q^n and tau^m -> m tau^(m-1)."""
        out: dict[tuple[int, int], PeriodElem] = {}

        def put(k, c):
            out[k] = out[k] + c if k in out else c

        for (n, m), c in self.coeffs.items():
            if n:
                put((n, m), c * PeriodElem.ipi() * (2 * n))
            if m:
                put((n, m - 1), c * m)
        return QSeriesPoly(self.order, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeriesPoly):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"q^{n} tau^{m} * [{render_period(c)}]" for (n, m), c in sorted(self.coeffs.items())]
        return f"QSeriesPoly(order={self.order}: " + (" + ".join(parts) or "0") + ")"


def integrate_tau(s: QSeriesPoly) -> QSeriesPoly:
    """Primitive along tau from the tangential basepoint at the cusp.

    Constant-in-q terms integrate to tau powers with no boundary term; q^n
    terms integrate by parts down to tau degree 0, every boundary piece
    vanishing at the cusp.
    """
    out: dict[tuple[int, int], PeriodElem] = {}

    def put(k, c):
        out[k] = out[k] + c if k in out else c

    for (n, m), c in s.coeffs.items():
        if n == 0:
            put((0, m + 1), c * Fraction(1, m + 1))
            continue
        for j in range(m, -1, -1):
            sign = -1 if (m - j) % 2 else 1
            rat = Fraction(sign * math.factorial(m), math.factorial(j) * (2 * n) ** (m - j + 1))
            put((n, j), c * PeriodElem.ipi(-(m - j + 1)) * rat)
    return QSeriesPoly(s.order, out)


def eisenstein_series(weight: int, Q: int) -> QSeriesPoly:
    """-B_w/(2w) + sum sigma_(w-1)(n) q^n for even weight >= 4; the 0-symbol
    is the constant series 1.  Weight 2 is rejected (not a modular form)."""
    if Q < 0:
        raise PreconditionError("q-order must be >= 0")
    if weight == 0:
        return QSeriesPoly.constant(1, Q)
    if weight == 2 or weight % 2 != 0 or weight < 0:
        raise PreconditionError(f"Eisenstein weight must be 0 or even >= 4, got {weight}")
    B = bernoulli_numbers(weight)
    coeffs: dict[tuple[int, int], PeriodElem] = {
        (0, 0): PeriodElem.from_rational(-B[weight] / (2 * weight))}
    for n in range(1, Q + 1):
        sigma = sum(d ** (weight - 1) for d in range(1, n + 1) if n % d == 0)
        coeffs[(n, 0)] = PeriodElem.from_rational(sigma)
    return QSeriesPoly(Q, coeffs)


def iterated_eisenstein(indices: Iterable[int], Q: int) -> QSeriesPoly:
    """Iterated tau-integral of Eisenstein series from the cusp, outermost
    index first: d/dtau I(k1,...,kn) = G_(k1) * I(k2,...,kn)."""
    idx = tuple(int(k) for k in indices)
    out = QSeriesPoly.constant(1, Q)
    for k in reversed(idx):
        out = integrate_tau(eisenstein_series(k, Q) * out)
    return out


def qseries_eval(s: QSeriesPoly, q0, precision: int) -> mp.mpc:
    """Numeric value at q = q0 with tau bound to log(q0)/(2*pi*i).

    Requires |q0| <= 1/2.  The truncation tail is bounded geometrically from
    the observed decay of the top rows; the bound must clear the requested
    precision or the evaluation refuses.
    """
    with mp.workdps(precision + GUARD_DIGITS + 5):
        q0c = mp.mpc(q0)
        r = abs(q0c)
        if r > mp.mpf(1) / 2:
            raise PreconditionError("qseries_eval needs |q0| <= 1/2")
        if r == 0:
            if any(n == 0 and m > 0 for (n, m) in s.coeffs):
                raise PreconditionError("tau diverges at the cusp q0 = 0")
            return mp.mpc(numeric_eval(s.coefficient(0, 0), precision))
        tau0 = mp.log(q0c) / (2 * mp.mpc(0, mp.pi))
        rows: dict[int, mp.mpc] = {}
        for (n, m), c in s.coeffs.items():
            v = mp.mpc(numeric_eval(c, precision + 5)) * tau0 ** m
            rows[n] = rows.get(n, mp.mpc(0)) + v
        total = sum((v * q0c ** n for n, v in rows.items()), mp.mpc(0))
        weighted = sorted((n, abs(v) * r ** n) for n, v in rows.items() if n >= 1 and abs(v) > 0)
        tol = mp.mpf(10) ** (-precision) * max(mp.mpf(1), abs(total))
        if weighted:
            # decay ratio estimated on the top rows; coefficient growth is
            # polynomial so the max observed step ratio dominates the tail
            window = weighted[-8:]
            ratios = [(window[i + 1][1] / window[i][1]) ** (mp.mpf(1) / (window[i + 1][0] - window[i][0]))
                      for i in range(len(window) - 1) if window[i][1] > 0]
            rho = max(ratios + [r]) * mp.mpf("1.25")
            t_last = max(t for _n, t in weighted[-3:])
            if rho >= mp.mpf("0.9"):
                raise NumericBudgetError("q-expansion order too small at this q0")
            tail = t_last * rho / (1 - rho)
            if tail > tol:
                raise NumericBudgetError(
                    f"tail bound {mp.nstr(tail, 3)} exceeds precision target at order {s.order}")
        return total


def word_symbol(word: Word) -> EllipticSymbol:
    """Opaque coefficient symbol of the elliptic associator at a word in T, A."""
    w = tuple(word)
    for letter in w:
        if letter not in ELLIPTIC_LETTERS:
            raise PreconditionError(f"associator words use letters T, A; got {letter!r}")
    return EllipticSymbol(name="e_" + "".join(w) if w else "e_unit", weight=len(w))


def elliptic_associator(N: int) -> NCSeries:
    """A-cycle associator as a formal series in T, A with opaque coefficients."""
    if N < 0:
        raise PreconditionError("truncation must be >= 0")
    coeffs: dict[Word, PeriodElem] = {(): PeriodElem.one()}
    words: list[Word] = [()]
    for _ in range(N):
        words = [w + (l,) for w in words for l in ELLIPTIC_LETTERS]
        for w in words:
            coeffs[w] = PeriodElem.elliptic(word_symbol(w))
    return NCSeries(ELLIPTIC_LETTERS, N, PeriodElem.one(), coeffs)
