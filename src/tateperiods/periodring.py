"""Exact coefficient ring for period computations.

Elements are Q-linear combinations of monomials in i*pi (any integer power),
admissible zeta symbols, elliptic symbols, and log symbols ("tau" is the log
symbol bound to normalized cusp coordinates).  No zeta relations are imposed:
this is the free polynomial ring on the symbols, and identities between
periods are checked numerically, never assumed.

Monomials render as e.g. "(i*pi)^2 * zeta(1,2) * E(4,0) * log(s_e1) * tau" and
parse back exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import mpmath as mp

from .errors import ParseError, PreconditionError, UnboundSymbolError

GUARD_DIGITS = 15

Composition = tuple[int, ...]


def check_composition(parts: Iterable[int]) -> Composition:
    k = tuple(int(p) for p in parts)
    if not k or any(p < 1 for p in k):
        raise PreconditionError(f"composition must be a nonempty tuple of positive integers, got {k}")
    return k


def is_admissible(k: Composition) -> bool:
    return bool(k) and k[-1] >= 2


@dataclass(frozen=True)
class EllipticSymbol:
    """Either an iterated-Eisenstein integral symbol (index tuple) or an opaque
    named symbol with a declared weight."""

    indices: tuple[int, ...] | None = None
    name: str | None = None
    weight: int | None = None

    def __post_init__(self):
        if (self.indices is None) == (self.name is None):
            raise PreconditionError("EllipticSymbol needs exactly one of indices or name")
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(int(k) for k in self.indices))
            for k in self.indices:
                if k % 2 != 0 or k < 0:
                    raise PreconditionError(f"Eisenstein indices must be even and >= 0, got {k}")
            object.__setattr__(self, "weight", sum(self.indices))
        else:
            if self.weight is None or self.weight < 0:
                raise PreconditionError("opaque elliptic symbol needs a declared weight >= 0")
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
                raise PreconditionError(f"bad symbol name {self.name!r}")

    @property
    def kind(self) -> str:
        return "iterated-eisenstein" if self.indices is not None else "opaque-emzv"

    def sort_key(self):
        if self.indices is not None:
            return (0, self.indices, "")
        return (1, (self.weight,), self.name)

    def render(self) -> str:
        if self.indices is not None:
            return "E(" + ",".join(str(k) for k in self.indices) + ")"
        return f"emzv({self.name};{self.weight})"


@dataclass(frozen=True)
class PeriodMonomial:
    ipi_power: int = 0
    zeta_factors: tuple[Composition, ...] = ()
    elliptic_factors: tuple[EllipticSymbol, ...] = ()
    log_factors: tuple[str, ...] = ()

    def __post_init__(self):
        for k in self.zeta_factors:
            if not is_admissible(k):
                raise PreconditionError(f"non-admissible zeta composition {k}")
        object.__setattr__(self, "zeta_factors", tuple(sorted(self.zeta_factors)))
        object.__setattr__(self, "elliptic_factors",
                           tuple(sorted(self.elliptic_factors, key=EllipticSymbol.sort_key)))
        object.__setattr__(self, "log_factors", tuple(sorted(self.log_factors)))

    def __mul__(self, other: "PeriodMonomial") -> "PeriodMonomial":
        return PeriodMonomial(self.ipi_power + other.ipi_power,
                              self.zeta_factors + other.zeta_factors,
                              self.elliptic_factors + other.elliptic_factors,
                              self.log_factors + other.log_factors)

    def is_unit(self) -> bool:
        return self == _UNIT_MONOMIAL

    def sort_key(self):
        return (self.ipi_power, self.zeta_factors,
                tuple(s.sort_key() for s in self.elliptic_factors), self.log_factors)

    def render(self) -> str:
        parts = []
        if self.ipi_power == 1:
            parts.append("(i*pi)")
        elif self.ipi_power != 0:
            parts.append(f"(i*pi)^{self.ipi_power}")
        for k in self.zeta_factors:
            parts.append("zeta(" + ",".join(str(p) for p in k) + ")")
        for s in self.elliptic_factors:
            parts.append(s.render())
        for name in self.log_factors:
            parts.append("tau" if name == "tau" else f"log({name})")
        return " * ".join(parts) if parts else "1"


_UNIT_MONOMIAL = PeriodMonomial()


class PeriodElem:
    """Finite Q-linear combination of period monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[PeriodMonomial, Fraction] | None = None):
        store: dict[PeriodMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    store[m] = c
        self.terms = store

    @classmethod
    def zero(cls) -> "PeriodElem":
        return cls()

    @classmethod
    def one(cls) -> "PeriodElem":
        return cls.from_rational(1)

    @classmethod
    def from_rational(cls, q) -> "PeriodElem":
        return cls({_UNIT_MONOMIAL: Fraction(q)})

    @classmethod
    def ipi(cls, power: int = 1) -> "PeriodElem":
        return cls({PeriodMonomial(ipi_power=power): Fraction(1)})

    @classmethod
    def zeta(cls, k: Iterable[int]) -> "PeriodElem":
        return cls({PeriodMonomial(zeta_factors=(check_composition(k),)): Fraction(1)})

    @classmethod
    def elliptic(cls, sym: EllipticSymbol) -> "PeriodElem":
        return cls({PeriodMonomial(elliptic_factors=(sym,)): Fraction(1)})

    @classmethod
    def log(cls, name: str) -> "PeriodElem":
        return cls({PeriodMonomial(log_factors=(name,)): Fraction(1)})

    @classmethod
    def tau(cls) -> "PeriodElem":
        return cls.log("tau")

    def rational_part(self) -> Fraction:
        return self.terms.get(_UNIT_MONOMIAL, Fraction(0))

    def as_rational(self) -> Fraction:
        """The value of an element with no non-unit monomials; error otherwise."""
        if any(not m.is_unit() for m in self.terms):
            raise PreconditionError(f"not a rational element: {render_period(self)}")
        return self.rational_part()

    def monomials(self) -> list[PeriodMonomial]:
        return sorted(self.terms, key=PeriodMonomial.sort_key)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return PeriodElem(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "PeriodElem":
        return PeriodElem({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PeriodElem({m: c * other for m, c in self.terms.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[PeriodMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return PeriodElem(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PeriodElem):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PeriodElem.from_rational(other).terms
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"PeriodElem({render_period(self)})"


def _coerce(x):
    if isinstance(x, PeriodElem):
        return x
    if isinstance(x, (int, Fraction)):
        return PeriodElem.from_rational(x)
    return NotImplemented


def render_period(x: PeriodElem) -> str:
    if not x.terms:
        return "0"
    chunks: list[str] = []
    for m in x.monomials():
        c = x.terms[m]
        mono = m.render()
        if m.is_unit():
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)} * {mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + body)
    return " ".join(chunks)


_TOKEN_RE = re.compile(r"""
    (?P<ipi>\(i\*pi\)(\^(?P<ipipow>-?\d+))?)
  | (?P<zeta>zeta\((?P<zargs>\d+(,\d+)*)\))
  | (?P<eis>E\((?P<eargs>\d+(,\d+)*)\))
  | (?P<emzv>emzv\((?P<ename>[A-Za-z_][A-Za-z0-9_]*);(?P<eweight>\d+)\))
  | (?P<log>log\((?P<lname>[^()\s]+)\))
  | (?P<tau>tau)
  | (?P<rat>-?\d+(/\d+)?)
""", re.VERBOSE)


def parse_period(text: str) -> PeriodElem:
    """Inverse of render_period; accepts any +/- separated product-of-factors string."""
    if not isinstance(text, str):
        raise ParseError(f"a period must be a string, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty period string")
    terms: dict[PeriodMonomial, Fraction] = {}
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    while pos < len(s):
        coeff, ipi_power, zetas, elliptic, logs = Fraction(sign), 0, [], [], []
        while True:
            m = _TOKEN_RE.match(s, pos)
            if not m:
                raise ParseError(f"unrecognized factor at {s[pos:pos+20]!r}", location=f"col {pos}")
            if m.group("ipi"):
                ipi_power += int(m.group("ipipow") or 1)
            elif m.group("zeta"):
                k = check_composition(int(p) for p in m.group("zargs").split(","))
                if not is_admissible(k):
                    raise ParseError(f"non-admissible zeta composition {k}")
                zetas.append(k)
            elif m.group("eis"):
                elliptic.append(EllipticSymbol(indices=tuple(int(p) for p in m.group("eargs").split(","))))
            elif m.group("emzv"):
                elliptic.append(EllipticSymbol(name=m.group("ename"), weight=int(m.group("eweight"))))
            elif m.group("log") or m.group("tau"):
                logs.append(m.group("lname") or "tau")
            else:
                try:
                    coeff *= Fraction(m.group("rat"))
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {m.group('rat')!r}", location=f"col {pos}") from None
            pos = m.end()
            if pos < len(s) and s[pos] == "*":
                pos += 1
                continue
            break
        mono = PeriodMonomial(ipi_power, tuple(zetas), tuple(elliptic), tuple(logs))
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
        if pos < len(s):
            if s[pos] == "+":
                sign, pos = 1, pos + 1
            elif s[pos] == "-":
                sign, pos = -1, pos + 1
            else:
                raise ParseError(f"expected + or - at {s[pos:pos+10]!r}", location=f"col {pos}")
            if pos >= len(s):
                raise ParseError("dangling sign at end of period string")
    return PeriodElem(terms)


def to_mp(value):
    """An mpmath number at the working precision.  A Fraction becomes its
    numerator divided by its denominator; other numbers go through mpmathify."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpmathify(value)


def numeric_eval(x: PeriodElem, precision: int,
                 bindings: Mapping[str, complex] | None = None,
                 elliptic_bindings: Mapping[EllipticSymbol, complex] | None = None) -> mp.mpc:
    """Evaluate to an arbitrary-precision complex with GUARD_DIGITS of internal slack.

    Every log symbol and every elliptic symbol occurring in x must be bound;
    zeta factors evaluate through mzv.mzv_numeric (memoized there).
    """
    from . import mzv

    bindings = bindings or {}
    elliptic_bindings = elliptic_bindings or {}
    with mp.workdps(precision + GUARD_DIGITS):
        ipi = mp.mpc(0, mp.pi)
        total = mp.mpc(0)
        for m, c in x.terms.items():
            val = mp.mpc(to_mp(c))
            if m.ipi_power:
                val *= ipi ** m.ipi_power
            for k in m.zeta_factors:
                val *= mzv.mzv_numeric(k, precision + GUARD_DIGITS)
            for sym in m.elliptic_factors:
                if sym not in elliptic_bindings:
                    raise UnboundSymbolError(f"no binding for elliptic symbol {sym.render()}")
                val *= mp.mpc(elliptic_bindings[sym])
            for name in m.log_factors:
                if name not in bindings:
                    raise UnboundSymbolError(f"no binding for log symbol {name!r}")
                val *= mp.mpc(bindings[name])
            total += val
        return total
