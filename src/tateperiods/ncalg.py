"""Truncated noncommutative power series over a generic commutative coefficient ring.

Words are tuples of letter names, graded by length (every letter has weight 1).
A series stores a sparse map word -> coefficient together with the ring's
multiplicative unit, so the same code runs over exact rationals, period-ring
elements, multivariate series, and arbitrary-precision complex numbers.  The
coefficient ring must support +, -, *, multiplication by int/Fraction, and
equality against 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PreconditionError

Word = tuple[str, ...]


def _is_zero(c) -> bool:
    try:
        return bool(c == 0)
    except TypeError:
        return False


class NCSeries:
    """Noncommutative polynomial in given letters, truncated at total weight `trunc`."""

    __slots__ = ("letters", "trunc", "one", "coeffs")

    def __init__(self, letters: Iterable[str], trunc: int, one, coeffs: Mapping[Word, object] | None = None):
        self.letters = tuple(letters)
        if trunc < 0:
            raise PreconditionError("truncation order must be >= 0")
        self.trunc = int(trunc)
        self.one = one
        letterset = set(self.letters)
        if len(letterset) != len(self.letters):
            raise PreconditionError(f"duplicate letters in alphabet {self.letters}")
        store: dict[Word, object] = {}
        if coeffs:
            for word, c in coeffs.items():
                if len(word) > self.trunc:
                    continue
                if not letterset.issuperset(word):
                    raise PreconditionError(f"word {word} uses letters outside alphabet {self.letters}")
                if not _is_zero(c):
                    store[tuple(word)] = c
        self.coeffs = store

    @classmethod
    def zero(cls, letters: Iterable[str], trunc: int, one) -> "NCSeries":
        return cls(letters, trunc, one)

    @classmethod
    def unit(cls, letters: Iterable[str], trunc: int, one) -> "NCSeries":
        return cls(letters, trunc, one, {(): one})

    @classmethod
    def letter(cls, letters: Iterable[str], trunc: int, one, name: str) -> "NCSeries":
        return cls(letters, trunc, one, {(name,): one})

    def _indexed(self, word: Word) -> tuple[int, ...]:
        return tuple(self.letters.index(l) for l in word)

    def words(self) -> list[Word]:
        """Stored words in length-lexicographic order (by letter index)."""
        return sorted(self.coeffs, key=lambda w: (len(w), self._indexed(w)))

    def coefficient(self, word: Iterable[str]):
        return self.coeffs.get(tuple(word), 0 * self.one)

    def constant_term(self):
        return self.coefficient(())

    def truncate(self, N: int) -> "NCSeries":
        if N >= self.trunc:
            return NCSeries(self.letters, N, self.one, self.coeffs)
        return NCSeries(self.letters, N, self.one, {w: c for w, c in self.coeffs.items() if len(w) <= N})

    def map_coefficients(self, fn: Callable, one=None) -> "NCSeries":
        """Apply fn to every coefficient; `one` overrides the target ring unit."""
        return NCSeries(self.letters, self.trunc, self.one if one is None else one,
                        {w: fn(c) for w, c in self.coeffs.items()})

    def scale(self, c) -> "NCSeries":
        return NCSeries(self.letters, self.trunc, self.one, {w: v * c for w, v in self.coeffs.items()})

    def _check_compatible(self, other: "NCSeries") -> None:
        if self.letters != other.letters:
            raise PreconditionError(f"alphabet mismatch: {self.letters} vs {other.letters}")

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            if w in out:
                out[w] = out[w] + c
            else:
                out[w] = c
        return NCSeries(self.letters, min(self.trunc, other.trunc), self.one, out)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self + (-other)

    def __neg__(self) -> "NCSeries":
        return NCSeries(self.letters, self.trunc, self.one, {w: -c for w, c in self.coeffs.items()})

    def __mul__(self, other: "NCSeries") -> "NCSeries":
        return nc_multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self.letters == other.letters and self.trunc == other.trunc and self.coeffs == other.coeffs

    __hash__ = None  # mutable-dict payload; series are not hashable

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "NCSeries(0)"
        parts = []
        for w in self.words():
            mono = "*".join(w) if w else "1"
            parts.append(f"({self.coeffs[w]!r})*{mono}")
        return "NCSeries(" + " + ".join(parts) + f"; trunc={self.trunc})"


def nc_multiply(f: NCSeries, g: NCSeries, N: int | None = None) -> NCSeries:
    """Concatenation product, truncated at weight N (default: min of the operands)."""
    f._check_compatible(g)
    if N is None:
        N = min(f.trunc, g.trunc)
    if N > min(f.trunc, g.trunc):
        raise PreconditionError("requested truncation exceeds operand truncation")
    out: dict[Word, object] = {}
    for w1, c1 in f.coeffs.items():
        room = N - len(w1)
        if room < 0:
            continue
        for w2, c2 in g.coeffs.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            c = c1 * c2
            if w in out:
                out[w] = out[w] + c
            else:
                out[w] = c
    return NCSeries(f.letters, N, f.one, out)


def shuffle_product(w1: Word, w2: Word) -> dict[Word, int]:
    """Shuffle product of two words as a multiplicity map; total count C(|w1|+|w2|, |w1|)."""
    w1, w2 = tuple(w1), tuple(w2)
    out: dict[Word, int] = {}
    _shuffle_into(w1, w2, (), out)
    return out


def _shuffle_into(w1: Word, w2: Word, prefix: Word, out: dict[Word, int]) -> None:
    if not w1:
        w = prefix + w2
        out[w] = out.get(w, 0) + 1
        return
    if not w2:
        w = prefix + w1
        out[w] = out.get(w, 0) + 1
        return
    _shuffle_into(w1[1:], w2, prefix + (w1[0],), out)
    _shuffle_into(w1, w2[1:], prefix + (w2[0],), out)


def _power_sum(h: NCSeries, coeff: Callable[[int], Fraction] | None = None) -> NCSeries:
    """1 + sum_k coeff(k) h^k for k = 1 .. h.trunc (coeff(k) = 1 by default),
    stopping at the first power of h that vanishes."""
    out = power = NCSeries.unit(h.letters, h.trunc, h.one)
    for k in range(1, h.trunc + 1):
        power = nc_multiply(power, h)
        if power.is_zero():
            break
        out = out + (power if coeff is None else power.scale(coeff(k)))
    return out


def nc_exp(f: NCSeries) -> NCSeries:
    """Truncated exponential; requires zero constant term."""
    if not _is_zero(f.constant_term()):
        raise PreconditionError("nc_exp needs zero constant term")
    return _power_sum(f, lambda k: Fraction(1, math.factorial(k)))


def nc_log(g: NCSeries) -> NCSeries:
    """Truncated logarithm; requires constant term 1."""
    if not _is_zero(g.constant_term() - g.one):
        raise PreconditionError("nc_log needs constant term 1")
    unit = NCSeries.unit(g.letters, g.trunc, g.one)
    return _power_sum(g - unit, lambda k: Fraction((-1) ** (k + 1), k)) - unit


def lie_bracket(f: NCSeries, g: NCSeries) -> NCSeries:
    return nc_multiply(f, g) - nc_multiply(g, f)


def nc_inverse(f: NCSeries) -> NCSeries:
    """Multiplicative inverse of a series with constant term 1."""
    if not _is_zero(f.constant_term() - f.one):
        raise PreconditionError("nc_inverse needs constant term 1")
    return _power_sum(NCSeries.unit(f.letters, f.trunc, f.one) - f)


def ad_action(f: NCSeries, x: NCSeries, N: int | None = None) -> NCSeries:
    """Substitute ad operators for the letters of f and apply to x.

    A word (l1, ..., lk) of f acts as ad_{l1} o ... o ad_{lk}; f's letters must
    belong to x's alphabet.
    """
    if N is None:
        N = x.trunc
    letters = {l: NCSeries.letter(x.letters, N, x.one, l) for l in f.letters}
    xt = x.truncate(N)
    applied: dict[Word, NCSeries] = {(): xt}

    def apply_word(w: Word) -> NCSeries:
        if w not in applied:
            applied[w] = lie_bracket(letters[w[0]], apply_word(w[1:]))
        return applied[w]

    out = NCSeries.zero(x.letters, N, x.one)
    for w, c in f.coeffs.items():
        out = out + apply_word(w).scale(c)
    return out


def bernoulli_numbers(N: int) -> list[Fraction]:
    """B_0..B_N with B_1 = -1/2, via the defining recurrence sum C(n+1,k) B_k = 0."""
    B = [Fraction(1)]
    for n in range(1, N + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * B[k]
        B.append(-acc / (n + 1))
    return B


def bernoulli_series(N: int, letter: str = "T") -> NCSeries:
    """The one-variable series T/(e^T - 1) = sum B_n/n! T^n, truncated at N."""
    B = bernoulli_numbers(N)
    coeffs = {(letter,) * n: B[n] / math.factorial(n) for n in range(N + 1)}
    return NCSeries((letter,), N, Fraction(1), coeffs)


def substitute_letters(f: NCSeries, images: Mapping[str, NCSeries]) -> NCSeries:
    """Algebra morphism determined by letter -> series; coefficients carry over by scaling.

    All images must share alphabet, truncation, and ring; f's coefficients must
    act on that ring by multiplication.
    """
    imgs = dict(images)
    missing = [l for l in f.letters if l not in imgs and any(l in w for w in f.coeffs)]
    if missing:
        raise PreconditionError(f"no image given for letters {missing}")
    sample = next(iter(imgs.values()), None)
    if sample is None:
        raise PreconditionError("substitute_letters needs at least one image")
    letters, trunc, one = sample.letters, sample.trunc, sample.one
    out = NCSeries.zero(letters, trunc, one)
    cache: dict[Word, NCSeries] = {(): NCSeries.unit(letters, trunc, one)}

    def image_of(w: Word) -> NCSeries:
        if w not in cache:
            cache[w] = nc_multiply(image_of(w[:-1]), imgs[w[-1]])
        return cache[w]

    for w, c in f.coeffs.items():
        out = out + image_of(w).scale(c)
    return out


def dynkin_theta(f: NCSeries) -> NCSeries:
    """Left-to-right bracketing map: l1...ln -> [[...[l1,l2],...],ln]; fixes weight 0/1 terms to 0/identity scale."""
    out = NCSeries.zero(f.letters, f.trunc, f.one)
    cache: dict[Word, NCSeries] = {}

    def theta_word(w: Word) -> NCSeries:
        if w not in cache:
            if len(w) == 1:
                cache[w] = NCSeries.letter(f.letters, f.trunc, f.one, w[0])
            else:
                cache[w] = lie_bracket(theta_word(w[:-1]), NCSeries.letter(f.letters, f.trunc, f.one, w[-1]))
        return cache[w]

    for w, c in f.coeffs.items():
        if w:
            out = out + theta_word(w).scale(c)
    return out


def is_lie_element(f: NCSeries) -> bool:
    """Dynkin-Specht-Wever: f (no constant term) is a Lie series iff theta fixes each
    weight-n part up to the factor n."""
    if not _is_zero(f.constant_term()):
        return False
    theta = dynkin_theta(f)
    for n in range(1, f.trunc + 1):
        part = {w: c for w, c in f.coeffs.items() if len(w) == n}
        tpart = {w: c for w, c in theta.coeffs.items() if len(w) == n}
        want = {w: c * n for w, c in part.items()}
        diff = dict(tpart)
        for w, c in want.items():
            diff[w] = diff.get(w, 0 * f.one) - c
        if any(not _is_zero(c) for c in diff.values()):
            return False
    return True


def grouplike_defects(f: NCSeries, max_total: int | None = None) -> Iterator[tuple[Word, Word, object]]:
    """Yield (w1, w2, coeff(w1)*coeff(w2) - coeff(w1 sh w2)) over nonempty word pairs.

    A constant-term-1 series is shuffle group-like iff every defect vanishes.
    """
    if max_total is None:
        max_total = f.trunc
    max_total = min(max_total, f.trunc)
    by_len: dict[int, list[Word]] = {0: [()]}
    for n in range(1, max_total):
        by_len[n] = [w + (l,) for w in by_len[n - 1] for l in f.letters]
    for n1 in range(1, max_total):
        for n2 in range(1, max_total - n1 + 1):
            for w1 in by_len[n1]:
                for w2 in by_len[n2]:
                    lhs = f.coefficient(w1) * f.coefficient(w2)
                    rhs = 0 * f.one
                    for w, mult in shuffle_product(w1, w2).items():
                        rhs = rhs + f.coefficient(w) * mult
                    yield w1, w2, lhs - rhs
