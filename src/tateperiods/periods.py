"""Assembly of unipotent period series on trivalent genus-one marked graphs.

A period series is a product of local monodromy factors read off a path of
atomic moves: rotations around branch points, fusing transports along a
smoothing edge, passes through the loop, and local associators between
branch pairs at a vertex.  Coefficients live in the period ring; fusing
scales stay symbolic as log factors until numeric evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import mpmath as mp

from .curves import ResidueAssignment, StableGraph, cycle_edges, validate_graph
from .elliptic import A_LETTER, T_LETTER, elliptic_associator
from .errors import ParseError, PreconditionError
from .kz import fusing_connection_matrix, rotation_monodromy
from .ncalg import NCSeries, lie_bracket, nc_exp, nc_inverse
from .periodring import GUARD_DIGITS, EllipticSymbol, PeriodElem, numeric_eval, to_mp

MOVE_KINDS = ("rotate", "fuse", "loop", "associator")
REGIME_BOUND = Fraction(1, 4)


def _check_move(move) -> tuple:
    if not isinstance(move, (tuple, list)) or not move or not isinstance(move[0], str):
        raise PreconditionError(f"malformed move {move!r}")
    kind = move[0]
    if kind == "rotate":
        if len(move) != 3 or not isinstance(move[1], str):
            raise PreconditionError(f"malformed rotate move {move!r}")
        if not isinstance(move[2], int) or isinstance(move[2], bool):
            raise PreconditionError(f"rotation count must be an integer in {move!r}")
        return ("rotate", move[1], move[2])
    if kind == "fuse":
        if len(move) not in (2, 3) or not isinstance(move[1], str):
            raise PreconditionError(f"malformed fuse move {move!r}")
        param = move[2] if len(move) == 3 else f"s_{move[1]}"
        if not isinstance(param, str) or not param:
            raise PreconditionError(f"fusing parameter must be a nonempty name in {move!r}")
        return ("fuse", move[1], param)
    if kind == "loop":
        if len(move) != 2 or move[1] not in (1, -1):
            raise PreconditionError(f"loop move needs direction +1 or -1, got {move!r}")
        return ("loop", move[1])
    if kind == "associator":
        if len(move) != 3 or not isinstance(move[1], str):
            raise PreconditionError(f"malformed associator move {move!r}")
        pair = move[2]
        if (not isinstance(pair, (tuple, list)) or len(pair) != 2
                or not all(isinstance(h, str) for h in pair)):
            raise PreconditionError(f"associator move needs a branch pair in {move!r}")
        if pair[0] == pair[1]:
            raise PreconditionError("associator branches must differ")
        return ("associator", move[1], (pair[0], pair[1]))
    raise PreconditionError(f"unknown move kind {kind!r}")


@dataclass(frozen=True)
class PathSpec:
    """Ordered atomic moves; element references are checked against the graph
    at assembly time."""

    moves: tuple[tuple, ...]

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(_check_move(m) for m in self.moves))


def path_from_list(items) -> PathSpec:
    """Build a PathSpec from parsed file content (a list of move lists)."""
    if not isinstance(items, list):
        raise ParseError("a path file must contain a list of moves")
    moves = []
    for item in items:
        if not isinstance(item, list):
            raise ParseError(f"each move must be a list, got {item!r}")
        try:
            moves.append(_check_move([tuple(x) if isinstance(x, list) else x for x in item]))
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
    return PathSpec(tuple(moves))


@dataclass(frozen=True)
class PeriodSeries:
    """Assembled monodromy: a noncommutative series over the period ring in
    the residue letters of the underlying assignment, truncated at `weight`;
    `order` is the series order carried for deformation expansions."""

    graph: StableGraph
    weight: int
    order: int
    series: NCSeries
    fusing_parameters: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fusing_parameters", tuple(self.fusing_parameters))


def _lift_residue(assignment: ResidueAssignment, h: str, N: int) -> NCSeries:
    raw = assignment.residue(h)
    for word in raw.coeffs:
        if len(word) > N:
            raise PreconditionError(
                f"residue at {h!r} has weight {len(word)}, exceeding the weight budget {N}")
    coeffs = {w: PeriodElem.from_rational(c) for w, c in raw.coeffs.items()}
    return NCSeries(assignment.letters, N, PeriodElem.one(), coeffs)


def assemble_period(assignment: ResidueAssignment, path, N: int, M: int) -> PeriodSeries:
    """Product, in path order, of the monodromy factors named by the moves.

    Factors: rotations exponentiate i*pi times the branch residue; a fusing
    move along an edge e off the cycle contributes the connection matrix
    pairing the loop bracket [T, A] with the edge residue, times
    exp(-log(s_e) * residue); loop traversal, allowed only when the cycle is
    a single edge, contributes the elliptic associator (inverted for the
    reverse direction); a vertex associator pairs two branch residues.

    Trivalent vertices pin their three local points at 0, 1, infinity, so no
    deformation series enter the coefficients; `M` records the order for the
    q-expansion stage downstream.
    """
    if not isinstance(path, PathSpec):
        path = PathSpec(tuple(path))
    if N < 0 or M < 0:
        raise PreconditionError("weight and order must be >= 0")
    g = assignment.graph
    report = validate_graph(g)
    if not report["trivalent"]:
        raise PreconditionError("period assembly needs a trivalent graph")
    letters = assignment.letters
    one = PeriodElem.one()
    cycle = cycle_edges(g)
    out = NCSeries.unit(letters, N, one)
    params: list[str] = []
    for move in path.moves:
        kind = move[0]
        if kind == "rotate":
            factor = rotation_monodromy(_lift_residue(assignment, move[1], N), move[2], N)
        elif kind == "fuse":
            edge, param = move[1], move[2]
            if edge not in g.edges:
                raise PreconditionError(f"fuse move references unknown edge {edge!r}")
            if edge in cycle:
                raise PreconditionError(f"fusing along the cycle edge {edge!r} is not allowed; "
                                        "traverse it with a loop move")
            if N < 2:
                raise PreconditionError(
                    f"the loop bracket has weight 2, exceeding the weight budget {N}")
            bracket = lie_bracket(NCSeries.letter(letters, N, one, T_LETTER),
                                  NCSeries.letter(letters, N, one, A_LETTER))
            y = _lift_residue(assignment, edge, N)
            factor = fusing_connection_matrix(bracket, y, N)
            factor = factor * nc_exp(y.scale(-PeriodElem.log(param)))
            if param not in params:
                params.append(param)
        elif kind == "loop":
            if len(cycle) != 1:
                raise PreconditionError("loop traversal needs a cycle of exactly one edge")
            lifted = NCSeries(letters, N, one, elliptic_associator(N).coeffs)
            factor = lifted if move[1] == 1 else nc_inverse(lifted)
        else:
            vertex, (h1, h2) = move[1], move[2]
            if vertex not in g.vertices:
                raise PreconditionError(f"associator move references unknown vertex {vertex!r}")
            for h in (h1, h2):
                if not g.has_branch(h) or g.branch_base(h) != vertex:
                    raise PreconditionError(
                        f"associator branch {h!r} is not based at {vertex!r}")
            factor = fusing_connection_matrix(
                _lift_residue(assignment, h1, N), _lift_residue(assignment, h2, N), N)
        out = out * factor
    return PeriodSeries(graph=g, weight=N, order=M, series=out,
                        fusing_parameters=tuple(params))


def ring_membership_check(p: PeriodSeries) -> dict:
    """Verify every coefficient monomial stays inside the expected ring.

    Allowed factors: nonnegative powers of i*pi, admissible zeta symbols
    (enforced at construction), elliptic symbols, and log symbols of the
    declared fusing parameters.  Reports violations, never raises.
    """
    allowed = set(p.fusing_parameters)
    violations = []
    for word in sorted(p.series.coeffs):
        for m in p.series.coeffs[word].monomials():
            if m.ipi_power < 0:
                violations.append({"word": word, "monomial": m.render(),
                                   "reason": f"negative i*pi power {m.ipi_power}"})
            for name in m.log_factors:
                if name not in allowed:
                    violations.append({"word": word, "monomial": m.render(),
                                       "reason": f"log symbol {name!r} is not a declared fusing parameter"})
    return {"passes": not violations, "violations": violations}


def _check_regime(label: str, assignments: Mapping[str, object]) -> None:
    for name, value in assignments.items():
        v = mp.mpc(to_mp(value))
        if v == 0 or abs(v) > mp.mpf(1) / 4:
            raise PreconditionError(
                f"{label} value for {name!r} is outside the analytic regime (0 < |.| <= 1/4)")


def numeric_evaluate_period(p: PeriodSeries, y_assignments: Mapping[str, object],
                            s_assignments: Mapping[str, object], q0, precision: int,
                            elliptic_bindings: Mapping[EllipticSymbol, object] | None = None,
                            ) -> NCSeries:
    """Evaluate every coefficient to an arbitrary-precision complex number.

    Log symbols of fusing parameters bind to log of the assigned scale, and
    elliptic symbols to their values in `elliptic_bindings`; evaluating an
    unbound symbol raises UnboundSymbolError.  The loop parameter `q0`, when
    given, is only checked against the analytic regime: no loop coefficient
    is computed from it yet.
    """
    if precision < 1:
        raise PreconditionError("precision must be >= 1")
    with mp.workdps(precision + GUARD_DIGITS):
        _check_regime("y", y_assignments)
        _check_regime("s", s_assignments)
        if q0 is not None:
            _check_regime("loop parameter", {"q0": q0})
        bindings = {name: mp.log(mp.mpc(to_mp(v))) for name, v in s_assignments.items()}
        ebind = {sym: mp.mpc(to_mp(value)) for sym, value in (elliptic_bindings or {}).items()}
        coeffs = {w: numeric_eval(c, precision, bindings=bindings, elliptic_bindings=ebind)
                  for w, c in p.series.coeffs.items()}
    return NCSeries(p.series.letters, p.series.trunc, mp.mpc(1), coeffs)
