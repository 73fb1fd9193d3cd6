"""Per-layer spans and counts, recorded from outside the package.

`install` wraps the public functions named in `SPANS` and rebinds every
reference to them in every loaded `tateperiods` module.  Several modules bind
these names at import (`kz` imports `nc_multiply` and `shuffle_regularize`,
`periods` imports `fusing_connection_matrix` and `numeric_eval`, `cli` imports
`numeric_transport_oracle` and `mzv_numeric`), so wrapping only the defining
module would miss those calls.

For each span the recorder keeps calls and inclusive busy time (nested calls
of the same span count once).  A layer's self time is the time inside its
outermost spans minus the time covered by spans of other layers nested in
them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module of tateperiods, public function)
SPANS = {
    "cli.main": ("cli", "main"),
    "kz.oracle": ("kz", "numeric_transport_oracle"),
    "kz.associator": ("kz", "drinfeld_associator"),
    "kz.fusing": ("kz", "fusing_connection_matrix"),
    "kz.rotation": ("kz", "rotation_monodromy"),
    "ncalg.multiply": ("ncalg", "nc_multiply"),
    "ncalg.exp": ("ncalg", "nc_exp"),
    "ncalg.inverse": ("ncalg", "nc_inverse"),
    "ncalg.substitute": ("ncalg", "substitute_letters"),
    "mzv.numeric": ("mzv", "mzv_numeric"),
    "mzv.polylog": ("mzv", "polylog_numeric"),
    "mzv.regularize": ("mzv", "shuffle_regularize"),
    "periodring.numeric_eval": ("periodring", "numeric_eval"),
    "periodring.parse": ("periodring", "parse_period"),
    "periodring.render": ("periodring", "render_period"),
    "elliptic.iterated": ("elliptic", "iterated_eisenstein"),
    "elliptic.qseries_eval": ("elliptic", "qseries_eval"),
    "curves.residue": ("curves", "residue_assignment"),
    "curves.compose": ("curves", "compose_path"),
    "curves.fixed_points": ("curves", "fixed_points_multiplier"),
    "curves.contraction": ("curves", "contraction_parameter_check"),
    "periods.assemble": ("periods", "assemble_period"),
    "periods.membership": ("periods", "ring_membership_check"),
    "periods.eval": ("periods", "numeric_evaluate_period"),
}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))


def _count_pairs(rec, args, result):
    rec.counts["ncalg.multiply_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_distinct(rec, args, result):
    rec.distinct.add(tuple(args[0]) if isinstance(args[0], (tuple, list)) else repr(args[0]))


def _count_qseries_terms(rec, args, result):
    rec.counts["elliptic.qseries_terms"] += len(result.coeffs)


def _count_period_terms(rec, args, result):
    rec.counts["periods.terms"] += len(result.series.coeffs)


COUNTERS = {
    "ncalg.multiply": _count_pairs,
    "mzv.numeric": _count_distinct,
    "elliptic.iterated": _count_qseries_terms,
    "periods.assemble": _count_period_terms,
}


class Recorder:
    """Span stack and totals of one worker interpreter."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, name, time covered by other layers]
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct: set = set()

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, name, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - start)
            if count is not None:
                count(self, args, result)
            return result

        return span

    def _close(self, frame: list, elapsed: float) -> None:
        self.stack.pop()
        layer, name, covered = frame
        self.calls[name] += 1
        if all(f[1] != name for f in self.stack):
            self.busy[name] += elapsed
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent[0] == layer:
            parent[2] += covered
            return
        self.self_time[layer] += elapsed - covered
        if parent is not None:
            parent[2] += elapsed

    def summary(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}_s"] = self.busy[name]
            out[f"{name}_calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        out.update(self.counts)
        out["mzv.numeric_distinct"] = len(self.distinct)
        return out


def install(recorder: Recorder) -> None:
    """Wrap every function in SPANS wherever a tateperiods module binds it."""
    importlib.import_module("tateperiods.cli")  # imports every layer
    modules = [m for key, m in list(sys.modules.items())
               if key == "tateperiods" or key.startswith("tateperiods.")]
    for name, (module, attr) in SPANS.items():
        original = getattr(importlib.import_module(f"tateperiods.{module}"), attr)
        wrapper = recorder.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
