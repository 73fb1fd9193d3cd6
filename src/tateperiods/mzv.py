"""Multiple zeta values: exact polylogarithm series, arbitrary-precision numerics,
and shuffle regularization of two-letter words into period-ring elements.

Word dictionary: the word of a composition (k1, ..., kl) is
x1 x0^(k1-1) x1 x0^(k2-1) ... x1 x0^(kl-1), first letter integrated innermost
(nearest the basepoint 0), so k1 governs the smallest summation index.

The default route `mzv_numeric` (memoized) is the Hoelder convolution at 1/2,
`mzv_numeric_holder`, on the fixed-point chain-sum kernel `_chain_levels`, with
guard bits from a derived bound of (n+1)(2(M+d)+1) ulps.  Its checks share no
arithmetic with it: the exact duality, stuffle and shuffle relations (each side
runs different chain sums), the transport oracle of `kz`, whose associator
coefficients are zeta values, and `mzv_numeric_bruteforce`, a literal truncated
lattice sum with a rigorous tail bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath as mp

from .errors import NumericBudgetError, PreconditionError
from .ncalg import Word
from .periodring import Composition, PeriodElem, check_composition, is_admissible

X0, X1 = "x0", "x1"
KZ_LETTERS = (X0, X1)


def word_of_composition(k: Iterable[int]) -> Word:
    k = check_composition(k)
    out: list[str] = []
    for part in k:
        out.append(X1)
        out.extend([X0] * (part - 1))
    return tuple(out)


def composition_of_word(w: Sequence[str]) -> Composition:
    if not w or w[0] != X1:
        raise PreconditionError(f"word {w} does not start with x1, has no composition")
    parts: list[int] = []
    for letter in w:
        if letter == X1:
            parts.append(1)
        elif letter == X0:
            parts[-1] += 1
        else:
            raise PreconditionError(f"letter {letter!r} outside the x0/x1 alphabet")
    return tuple(parts)


def is_admissible_word(w: Sequence[str]) -> bool:
    return bool(w) and w[0] == X1 and w[-1] == X0


def _admissible(k: Iterable[int]) -> Composition:
    k = check_composition(k)
    if not is_admissible(k):
        raise PreconditionError(f"composition {k} is not admissible (last part must be >= 2)")
    return k


def polylog_series(k: Iterable[int], M: int) -> list[Fraction]:
    """Coefficients c[0..M] of the multiple polylogarithm sum over index chains."""
    k = check_composition(k)
    if M < 1:
        raise PreconditionError("series order must be >= 1")
    coeffs = [Fraction(0)] + [Fraction(1, n ** k[0]) for n in range(1, M + 1)]
    for kj in k[1:]:
        prefix = Fraction(0)
        nxt = [Fraction(0)] * (M + 1)
        for n in range(1, M + 1):
            nxt[n] = prefix / n ** kj
            prefix += coeffs[n]
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# Default route: Hoelder convolution.  Splitting the iterated-integral simplex at
# 1/2 writes zeta(w) as sum over w = u.v of Li(u)(1/2) * Li(sigma(reverse(v)))(1/2),
# sigma swapping x0 and x1; chain sums run on ints scaled by 2^wp (libmp.gammazeta).
# ---------------------------------------------------------------------------


def _chain_levels(k: Composition, M: int, wp: int) -> list[int]:
    """Coefficients c[0..M] of `polylog_series(k, M)` as ints scaled by 2^wp.

    Each entry is floored once.  Level j sums level j-1 below n and divides by
    n^k_j >= n, so a depth-d level is at most d ulps below the exact value.
    """
    level = [0] + [(1 << wp) // n ** k[0] for n in range(1, M + 1)]
    for kj in k[1:]:
        prefix = 0
        nxt = [0] * (M + 1)
        for n in range(1, M + 1):
            nxt[n] = prefix // n ** kj
            prefix += level[n]
        level = nxt
    return level


def _bits(digits: int, k: Composition) -> int:
    """Bits for 10^-digits relative to prod j^-k_j, the first term of a chain sum over k."""
    first = math.prod(j ** kj for j, kj in enumerate(k, 1))
    return math.ceil(digits * math.log2(10)) + first.bit_length()


def _chain_terms(depth: int, lr: float, tail_bits: int) -> int:
    """Terms M after which a chain sum at |z| = r = 2^lr has its tail, at most
    (M+1)^(depth-1) r^(M+1) / (1-r)^depth as c_m <= C(m-1, depth-1), below
    2^-tail_bits, with two bits to spare for float rounding."""
    M = 1
    while (excess := 2 + tail_bits + (depth - 1) * math.log2(M + 1)
           + (M + 1) * lr - depth * math.log2(1 - 2 ** lr)) > 0:
        M += math.ceil(excess / -lr)
    return M


def _chain_sum_at_half(k: Composition, M: int, wp: int) -> int:
    """Li_k(1/2) scaled by 2^wp, truncated after M terms."""
    level = _chain_levels(k, M, wp)
    return sum(level[n] >> n for n in range(1, M + 1))


def mzv_numeric_holder(k: Iterable[int], precision: int) -> mp.mpf:
    """Zeta value by convolution of polylogarithm sums at 1/2, |error| < 10^(-precision).

    Rounding, in ulps of 2^-wp, on a word of length n:
    - every k_j >= 1, so each level adds at most 1 ulp and a depth-d level is
      off by at most d ulps;
    - the shifts at 1/2 add at most M ulps, M the number of terms;
    - both factors of a split are below 1, so n+1 splits give at most
      (n+1)(2(M+d)+1) ulps in total.
    Every factor has depth d <= n and runs M terms, chosen at depth n so each
    tail is below 2^-(bits+2)/(n+1); wp has the guard bits above beyond 2^-bits.
    The error is below 2^-bits < 10^-(precision+8) times the first chain term,
    a lower bound on the value, so printed digits of small values hold too.
    """
    k = _admissible(k)
    w = word_of_composition(k)
    n = len(w)
    bits = _bits(precision + 8, k) + 1
    M = _chain_terms(n, -1.0, bits + 2 + (n + 1).bit_length())
    wp = bits + 1 + ((n + 1) * (2 * (M + n) + 1)).bit_length()
    total = 0
    for j in range(n + 1):
        u, rv = w[:j], tuple({X0: X1, X1: X0}[letter] for letter in reversed(w[j:]))
        left = _chain_sum_at_half(composition_of_word(u), M, wp) if u else 1 << wp
        right = _chain_sum_at_half(composition_of_word(rv), M, wp) if rv else 1 << wp
        total += left * right >> wp
    with mp.workdps(precision + 12):
        return mp.ldexp(mp.mpf(total), -wp)


_MZV_CACHE: dict[Composition, tuple[int, mp.mpf]] = {}


def mzv_numeric(k: Iterable[int], precision: int) -> mp.mpf:
    """Zeta value of an admissible composition, |error| < 10^(-precision), memoized."""
    k = _admissible(k)
    dps = precision + 12
    hit = _MZV_CACHE.get(k)
    if hit is not None and hit[0] >= dps:
        return hit[1]
    value = mzv_numeric_holder(k, precision)
    _MZV_CACHE[k] = (dps, value)
    return value


def mzv_numeric_bruteforce(k: Iterable[int], M: int, dps: int = 30) -> tuple[mp.mpf, mp.mpf]:
    """Literal truncated lattice sum with a rigorous tail bound.

    Bound: chains below the top index contribute at most prod_i H-type factors
    <= (1 + log M)^(l-1), so the tail is below
    2 (1 + log M)^(l-1) M^(1-k_l) / (k_l - 1) once M >= exp(2(l-1)/(k_l-1)).
    """
    k = _admissible(k)
    l = len(k)
    with mp.workdps(dps):
        if M < math.exp(2 * (l - 1) / (k[-1] - 1)) or M < 100:
            raise NumericBudgetError("truncation too small for the tail bound to hold")
        level = [mp.mpf(0)] + [mp.mpf(n) ** (-k[0]) for n in range(1, M + 1)]
        for kj in k[1:]:
            prefix = mp.mpf(0)
            nxt = [mp.mpf(0)] * (M + 1)
            for n in range(1, M + 1):
                nxt[n] = prefix / mp.mpf(n) ** kj
                prefix += level[n]
            level = nxt
        value = mp.fsum(level)
        bound = 2 * (1 + mp.log(M)) ** (l - 1) * mp.mpf(M) ** (1 - k[-1]) / (k[-1] - 1)
        return value, bound


def polylog_numeric(k: Iterable[int], z, precision: int) -> mp.mpc:
    """Multiple polylogarithm chain sum at |z| < 1 with a certified geometric tail.

    Horner's rule runs on real and imaginary parts as ints scaled by 2^wp, with
    targets relative to the leading term c_depth z^depth.  Levels are at most
    depth ulps low, a step rounds by under 2 ulps, partial sums stay below 4e
    and |z| < 3/4 damps earlier errors, so the total stays below
    2^(bit_length(depth)+8) ulps, inside the 16 + bit_length(depth) guard bits.
    """
    k = check_composition(k)
    dps = precision + 12
    with mp.workdps(dps):
        z = mp.mpc(z)
        r = abs(z)
        if not r < 1:  # also a NaN modulus
            raise PreconditionError(f"|z| = {mp.nstr(r, 8)} lies outside the unit disc")
        if r >= mp.mpf(3) / 4:
            raise NumericBudgetError(f"|z| = {mp.nstr(r, 8)} too close to 1 for the chain sum")
        if r == 0:
            return mp.mpc(0)
        depth, lr = len(k), float(mp.log(r, 2))
        small = math.ceil(-depth * lr)
        M = _chain_terms(depth, lr, _bits(precision + 6, k) + small)
        wp = _bits(precision + 8, k) + small + 16 + depth.bit_length()
        zr, zi = int(mp.ldexp(z.real, wp)), int(mp.ldexp(z.imag, wp))
        level = _chain_levels(k, M, wp)
        tr = ti = 0
        for n in range(M, 0, -1):
            tr += level[n]
            tr, ti = (tr * zr - ti * zi) >> wp, (tr * zi + ti * zr) >> wp
        return mp.mpc(mp.ldexp(mp.mpf(tr), -wp), mp.ldexp(mp.mpf(ti), -wp))


# ---------------------------------------------------------------------------
# Shuffle regularization with both endpoint constants set to 0.
# ---------------------------------------------------------------------------

_REG_CACHE: dict[Word, PeriodElem] = {}


def shuffle_regularize(w: Sequence[str]) -> PeriodElem:
    """Shuffle-regularized value of a two-letter word as a period-ring element.

    Admissible words map to their zeta symbol; the divergent letters x1 (at the
    far endpoint) and x0 (at the basepoint) regularize to 0, and every other
    word reduces through the shuffle algebra.
    """
    w = tuple(w)
    for letter in w:
        if letter not in KZ_LETTERS:
            raise PreconditionError(f"letter {letter!r} outside the x0/x1 alphabet")
    return _reg(w)


def _reg(w: Word) -> PeriodElem:
    hit = _REG_CACHE.get(w)
    if hit is not None:
        return hit
    if not w:
        out = PeriodElem.one()
    elif is_admissible_word(w):
        out = PeriodElem.zeta(composition_of_word(w))
    elif w[-1] == X1:
        b = next((i for i, letter in enumerate(reversed(w)) if letter != X1), len(w))
        v, tail = w[: len(w) - b], (X1,) * (b - 1)
        acc = PeriodElem.zero()
        for j in range(len(v)):
            acc = acc + _reg(v[:j] + (X1,) + v[j:] + tail)
        out = acc * Fraction(-1, b)
    else:
        a = next((i for i, letter in enumerate(w) if letter != X0), len(w))
        v, head = w[a:], (X0,) * (a - 1)
        acc = PeriodElem.zero()
        for q in range(1, len(v) + 1):
            acc = acc + _reg(head + v[:q] + (X0,) + v[q:])
        out = acc * Fraction(-1, a)
    _REG_CACHE[w] = out
    return out
