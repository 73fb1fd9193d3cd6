"""Output checks against references the checked command does not compute.

`Checker.check(job)` returns None when the job's document is right and a
one-line reason otherwise.  Printed values carry `precision - 2` significant
digits; a value passes when it is within 10^(2 - digits) of the reference,
relative to max(1, |reference|).

* `mzv`: zeta values from `data/zeta_refs.json` (mpmath closed forms, or the
  Hoelder route at 115 digits; the command uses Euler-Maclaurin).
* `polylog`: mpmath's polylog at depth one, a nested chain sum written here
  otherwise, both at ten extra digits.
* `transport`: the exact Drinfeld associator with every zeta symbol replaced
  by its reference value.
* `graph validate`: every catalogue graph is stable, trivalent, of genus one.
* exact documents (`period assemble`, `moebius fix`, `check contraction`,
  `eis-int`): SHA-256 against the digest in `data/catalogue.json`; assembled
  periods must also pass their membership report, and every coefficient must
  round-trip through `parse_period` / `render_period`.
* `period eval`: each printed coefficient against the exact document
  evaluated here from reference zeta values and the assignment file.
* `eval-q`: against the exact `eis-int` series of the same pass summed here.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp

from workloads import DATA, catalogue

GUARD = 20


@lru_cache(maxsize=None)
def zeta_refs() -> dict:
    with open(DATA / "zeta_refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def zeta_ref(k) -> mp.mpf:
    return mp.mpf(zeta_refs()[",".join(str(p) for p in k)])


def close(printed: str, ref, precision: int) -> bool:
    digits = max(precision - 2, 1)
    with mp.workdps(precision + GUARD):
        return abs(mp.mpmathify(printed) - ref) <= mp.mpf(10) ** (2 - digits) * max(1, abs(ref))


def complex_close(printed: dict, ref, precision: int) -> bool:
    with mp.workdps(precision + GUARD):
        ref = mp.mpc(ref)
        return (close(printed["re"], ref.real, precision)
                and close(printed["im"], ref.imag, precision))


def polylog_ref(k: tuple[int, ...], z: Fraction, dps: int) -> mp.mpf:
    """Sum over n_1 < ... < n_d of z^(n_d) / (n_1^k_1 ... n_d^k_d)."""
    with mp.workdps(dps):
        zz = mp.mpf(z.numerator) / z.denominator
        if len(k) == 1:
            return mp.polylog(k[0], zz)
        terms = 16
        while mp.mpf(terms) ** len(k) * abs(zz) ** terms > mp.mpf(10) ** (-dps - 5):
            terms *= 2
        level = [mp.mpf(0)] + [mp.mpf(n) ** -k[0] for n in range(1, terms + 1)]
        for kj in k[1:]:
            acc = mp.mpf(0)
            nxt = [mp.mpf(0)] * (terms + 1)
            for n in range(1, terms + 1):
                nxt[n] = acc / mp.mpf(n) ** kj
                acc += level[n]
            level = nxt
        return mp.fsum(level[n] * zz ** n for n in range(1, terms + 1))


def period_value(elem, bindings: dict, elliptic: dict) -> mp.mpc:
    """Numeric value of a PeriodElem from reference zeta values."""
    ipi = mp.mpc(0, mp.pi)
    total = mp.mpc(0)
    for m, c in elem.terms.items():
        val = mp.mpc(c.numerator) / c.denominator * ipi ** m.ipi_power
        for k in m.zeta_factors:
            val *= zeta_ref(k)
        for sym in m.elliptic_factors:
            val *= elliptic[sym.name]
        for name in m.log_factors:
            val *= bindings[name]
        total += val
    return total


def _scalar(text) -> mp.mpc:
    if isinstance(text, list):
        return mp.mpc(float(text[0]), float(text[1]))
    q = Fraction(text)
    return mp.mpc(q.numerator) / q.denominator


class Checker:
    def __init__(self):
        from tateperiods.kz import drinfeld_associator
        from tateperiods.periodring import parse_period, render_period

        self.associator = lru_cache(maxsize=None)(drinfeld_associator)
        self.parse = parse_period
        self.render = render_period

    def check(self, job: dict) -> str | None:
        try:
            raw = Path(job["out"]).read_bytes()
            doc = json.loads(raw)["result"]
        except (OSError, ValueError, KeyError) as exc:
            return f"no document: {exc}"
        if "key" in job and hashlib.sha256(raw).hexdigest() != catalogue()["digests"].get(job["key"]):
            return f"document digest differs from the recorded one for {job['key']}"
        return getattr(self, "_" + job["kind"].replace("-", "_"))(job, doc)

    def _mzv(self, job, doc):
        with mp.workdps(job["precision"] + GUARD):
            ref = zeta_ref(job["indices"])
        if not close(doc["value"], ref, job["precision"]):
            return f"mzv {job['indices']} = {doc['value']} disagrees with the reference"
        return None

    def _polylog(self, job, doc):
        p = job["precision"]
        ref = polylog_ref(tuple(job["indices"]), Fraction(job["z"]), p + GUARD)
        if not complex_close(doc["value"], ref, p):
            return f"polylog {job['indices']} at {job['z']} disagrees with the reference"
        return None

    def _transport(self, job, doc):
        p = job["precision"]
        series = self.associator(job["weight"])
        terms = doc["terms"]
        words = {" ".join(w) for w in series.coeffs} | set(terms)
        with mp.workdps(p + GUARD):
            for word in sorted(words):
                if word not in terms:
                    return f"transport omits word {word!r}"
                ref = period_value(series.coefficient(tuple(word.split())), {}, {})
                if not complex_close(terms[word], ref, p):
                    return f"transport word {word!r} disagrees with the associator"
        return None

    def _round_trip(self, terms: dict) -> str | None:
        for word, text in terms.items():
            if self.render(self.parse(text)) != text:
                return f"coefficient at {word!r} does not round-trip: {text}"
        return None

    def _assemble(self, job, doc):
        if not doc["membership"]["passes"]:
            return "membership report fails"
        return self._round_trip(doc["terms"])

    def _eval(self, job, doc):
        p = job["precision"]
        exact = json.loads(Path(job["document"]).read_text(encoding="utf-8"))["result"]["terms"]
        assign = job["assign"]
        zero = {"re": "0", "im": "0"}
        with mp.workdps(p + GUARD):
            logs = {name: mp.log(_scalar(v)) for name, v in assign["s"].items()}
            elliptic = {"e_" + w.replace(" ", ""): _scalar(v)
                        for w, v in assign["elliptic"].items()}
            for word in set(exact) | set(doc["terms"]):
                ref = period_value(self.parse(exact.get(word, "0")), logs, elliptic)
                if not complex_close(doc["terms"].get(word, zero), ref, p):
                    return f"eval of {word!r} disagrees with the exact document"
        return None

    def _moebius(self, job, doc):
        return None

    def _validate(self, job, doc):
        expected = {"genus": 1, "n": job["marks"], "stable": True, "trivalent": True}
        return None if doc["report"] == expected else f"graph report {doc['report']}"

    def _contraction(self, job, doc):
        return None if doc["passes"] else "contraction check fails"

    def _eis_int(self, job, doc):
        return self._round_trip(doc["series"]["terms"])

    def _eval_q(self, job, doc):
        p = job["precision"]
        series = json.loads(Path(job["series"]).read_text(encoding="utf-8"))["result"]["series"]
        with mp.workdps(p + GUARD):
            q0 = _scalar(job["q0"])
            tau0 = mp.log(q0) / (2 * mp.mpc(0, mp.pi))
            total = mp.mpc(0)
            for key, text in series["terms"].items():
                n, m = (int(t) for t in key.split(","))
                total += period_value(self.parse(text), {}, {}) * tau0 ** m * q0 ** n
            if not complex_close(doc["value"], total, p):
                return "eval-q disagrees with the summed eis-int series"
        return None
