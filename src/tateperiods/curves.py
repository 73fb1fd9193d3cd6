"""Stable genus-one marked graphs, expansion moves, residue assignments, and
the formal Moebius gluing layer over truncated deformation series."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import A_LETTER, HAIN_X0, HAIN_X1, HAIN_XINF, T_LETTER, hain_hom
from .errors import ParseError, PreconditionError
from .ncalg import NCSeries

LOOP_EDGE = "l"
INFINITY = "inf"  # coordinate of the branch at infinity in a gluing frame


def flip(h: str) -> str:
    """Opposite branch of the same edge."""
    return h[1:] if h.startswith("-") else "-" + h


def edge_of(h: str) -> str:
    return h[1:] if h.startswith("-") else h


def _check_id(kind: str, name: object) -> None:
    if not isinstance(name, str) or not name or name.startswith("-") or "," in name:
        raise PreconditionError(f"bad {kind} id {name!r}")


@dataclass(frozen=True)
class StableGraph:
    """Vertices, oriented edges, and numbered tails.

    An edge id ``e`` names two branches: ``e`` based at the first endpoint
    and ``-e`` based at the second.  Tails are branches in their own right.
    """

    vertices: tuple[str, ...]
    edges: Mapping[str, tuple[str, str]]
    tails: Mapping[str, str]
    numbering: Mapping[str, int]

    def __post_init__(self) -> None:
        verts = tuple(sorted(self.vertices))
        edges = {e: (a, b) for e, (a, b) in sorted(self.edges.items())}
        tails = dict(sorted(self.tails.items()))
        numbering = dict(sorted(self.numbering.items()))
        if len(set(verts)) != len(verts):
            raise PreconditionError("duplicate vertex ids")
        ids = set()
        for v in verts:
            _check_id("vertex", v)
            ids.add(v)
        vset = set(verts)
        for e, (a, b) in edges.items():
            _check_id("edge", e)
            if e in ids:
                raise PreconditionError(f"id {e!r} used twice")
            ids.add(e)
            if a not in vset or b not in vset:
                raise PreconditionError(f"edge {e!r} has a missing endpoint")
        for t, base in tails.items():
            _check_id("tail", t)
            if t in ids:
                raise PreconditionError(f"id {t!r} used twice")
            ids.add(t)
            if base not in vset:
                raise PreconditionError(f"tail {t!r} has a missing base vertex")
        if set(numbering) != set(tails):
            raise PreconditionError("numbering must cover exactly the tails")
        n = len(tails)
        if sorted(numbering.values()) != list(range(1, n + 1)):
            raise PreconditionError("numbering must be a bijection onto 1..n")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "numbering", numbering)

    def n_tails(self) -> int:
        return len(self.tails)

    def has_branch(self, h: str) -> bool:
        return h in self.tails or edge_of(h) in self.edges

    def branch_base(self, h: str) -> str:
        if h in self.tails:
            return self.tails[h]
        e = edge_of(h)
        if e in self.edges:
            return self.edges[e][1 if h.startswith("-") else 0]
        raise PreconditionError(f"unknown branch {h!r}")

    def branches_at(self, v: str) -> tuple[str, ...]:
        if v not in self.vertices:
            raise PreconditionError(f"unknown vertex {v!r}")
        out: list[str] = []
        for e, (a, b) in self.edges.items():
            if a == v:
                out.append(e)
            if b == v:
                out.append("-" + e)
        out.extend(t for t, base in self.tails.items() if base == v)
        return tuple(out)

    def all_branches(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.edges:
            out.extend((e, "-" + e))
        out.extend(self.tails)
        return tuple(out)


def validate_graph(g: StableGraph) -> dict:
    """Connectivity and stability report: genus, tail count, trivalence."""
    if not g.vertices:
        raise PreconditionError("graph has no vertices")
    adjacency: dict[str, set[str]] = {v: set() for v in g.vertices}
    for a, b in g.edges.values():
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    unreachable = sorted(set(g.vertices) - seen)
    if unreachable:
        raise PreconditionError(f"graph is disconnected, unreachable vertices {unreachable}")
    counts = {v: len(g.branches_at(v)) for v in g.vertices}
    offenders = sorted(v for v, k in counts.items() if k < 3)
    if offenders:
        raise PreconditionError(f"unstable vertices {offenders} (fewer than 3 branches)")
    return {
        "genus": len(g.edges) - len(g.vertices) + 1,
        "n": g.n_tails(),
        "stable": True,
        "trivalent": all(k == 3 for k in counts.values()),
    }


def cycle_edges(g: StableGraph) -> tuple[str, ...]:
    """Edges left once leaf edges (an endpoint on no other edge) are stripped
    repeatedly; on a connected genus-one graph these form its one cycle."""
    edges = dict(g.edges)
    while True:
        degree: dict[str, int] = {}
        for a, b in edges.values():
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        leaves = [e for e, (a, b) in edges.items() if a != b and 1 in (degree[a], degree[b])]
        if not leaves:
            return tuple(edges)
        for e in leaves:
            del edges[e]


def basic_graph(n: int) -> StableGraph:
    """Reference genus-one graph with n tails.

    For n >= 2: tails and a separating edge at one vertex, the loop at the
    other.  For n = 1 the separating edge would leave an unstable vertex, so
    the loop and the tail share a single vertex.
    """
    if n < 1:
        raise PreconditionError("need at least one tail")
    if n == 1:
        return StableGraph(
            vertices=("v0",),
            edges={LOOP_EDGE: ("v0", "v0")},
            tails={"t1": "v0"},
            numbering={"t1": 1},
        )
    return StableGraph(
        vertices=("v0", "v1"),
        edges={"e": ("v0", "v1"), LOOP_EDGE: ("v1", "v1")},
        tails={f"t{i}": "v0" for i in range(1, n + 1)},
        numbering={f"t{i}": i for i in range(1, n + 1)},
    )


def expansion_names(g: StableGraph) -> tuple[str, str]:
    """Deterministic fresh names for the vertex and edge of the next expansion."""
    used = set(g.vertices) | set(g.edges) | set(g.tails)
    k = 0
    while f"v{k}" in used:
        k += 1
    j = 0
    while f"e{j}" in used:
        j += 1
    return f"v{k}", f"e{j}"


def expand_vertex(g: StableGraph, v: str, pair: Sequence[str]) -> StableGraph:
    """Split vertex v, pulling the two given branches onto a fresh vertex.

    The fresh edge is based at the old vertex, so contracting it merges the
    fresh vertex back and restores the input graph exactly.
    """
    if v not in g.vertices:
        raise PreconditionError(f"unknown vertex {v!r}")
    try:
        h1, h2 = pair
    except (TypeError, ValueError):
        raise PreconditionError(f"need exactly two branches, got {pair!r}") from None
    if h1 == h2:
        raise PreconditionError("the two pulled branches must differ")
    for h in (h1, h2):
        if not g.has_branch(h) or g.branch_base(h) != v:
            raise PreconditionError(f"branch {h!r} is not based at {v!r}")
    if len(g.branches_at(v)) < 4:
        raise PreconditionError(f"vertex {v!r} needs at least 4 branches to expand")
    nv, ne = expansion_names(g)
    edges = dict(g.edges)
    tails = dict(g.tails)
    for h in (h1, h2):
        if h in tails:
            tails[h] = nv
        else:
            a, b = edges[edge_of(h)]
            edges[edge_of(h)] = (a, nv) if h.startswith("-") else (nv, b)
    edges[ne] = (v, nv)
    return StableGraph(g.vertices + (nv,), edges, tails, g.numbering)


def contract_edge(g: StableGraph, e: str) -> StableGraph:
    """Contract a nonloop edge, merging its head vertex into its base."""
    if e not in g.edges:
        raise PreconditionError(f"unknown edge {e!r}")
    a, b = g.edges[e]
    if a == b:
        raise PreconditionError(f"cannot contract the loop edge {e!r}")
    edges = {
        f: (a if p == b else p, a if q == b else q)
        for f, (p, q) in g.edges.items()
        if f != e
    }
    tails = {t: a if base == b else base for t, base in g.tails.items()}
    vertices = tuple(x for x in g.vertices if x != b)
    return StableGraph(vertices, edges, tails, g.numbering)


def _lift(s: NCSeries, letters: tuple[str, ...], trunc: int, one) -> NCSeries:
    return NCSeries(letters, trunc, one, {w: s.coefficient(w) for w in s.words()})


@dataclass(frozen=True)
class ResidueAssignment:
    """Residue series per branch, with zero sum at every vertex."""

    graph: StableGraph
    letters: tuple[str, ...]
    trunc: int
    residues: Mapping[str, NCSeries]

    def residue(self, h: str) -> NCSeries:
        try:
            return self.residues[h]
        except KeyError:
            raise PreconditionError(f"no residue for branch {h!r}") from None

    def vertex_sum(self, v: str) -> NCSeries:
        total = NCSeries.zero(self.letters, self.trunc, Fraction(1))
        for h in self.graph.branches_at(v):
            total = total + self.residue(h)
        return total

    def vertex_sums(self) -> dict[str, NCSeries]:
        return {v: self.vertex_sum(v) for v in self.graph.vertices}


def residue_assignment(g: StableGraph, moves: Sequence[Sequence[object]], trunc: int) -> ResidueAssignment:
    """Residues on a graph reached from the basic one by the given moves.

    Moves are ("expand", vertex, (h1, h2)) and ("contract", edge).  Each
    expansion puts the sum of the pulled residues on the fresh edge, with
    opposite signs at its two ends, so vertex sums stay zero and a later
    contraction merely forgets the pair.  Contracting the loop is refused.
    """
    if trunc < 1:
        raise PreconditionError("truncation order must be at least 1")
    n = g.n_tails()
    current = basic_graph(n)
    letters = tuple(f"Xt{i}" for i in range(1, n)) + (T_LETTER, A_LETTER)
    one = Fraction(1)
    imgs = hain_hom(trunc)
    x0 = _lift(imgs[HAIN_X0], letters, trunc, one)
    bracket = _lift(imgs[HAIN_X1], letters, trunc, one)
    xinf = _lift(imgs[HAIN_XINF], letters, trunc, one)
    res: dict[str, NCSeries] = {}
    if n == 1:
        res["t1"] = bracket
    else:
        acc = NCSeries.zero(letters, trunc, one)
        for i in range(1, n):
            xi = NCSeries.letter(letters, trunc, one, f"Xt{i}")
            res[f"t{i}"] = xi
            acc = acc + xi
        res[f"t{n}"] = bracket - acc
        res["e"] = -bracket
        res["-e"] = bracket
    res[LOOP_EDGE] = x0
    res[flip(LOOP_EDGE)] = xinf
    for move in moves:
        if not isinstance(move, (list, tuple)) or not move:
            raise PreconditionError(f"malformed move {move!r}")
        kind = move[0]
        if kind == "expand":
            if len(move) != 3:
                raise PreconditionError(f"malformed expand move {move!r}")
            _, v, pair = move
            _, ne = expansion_names(current)
            current = expand_vertex(current, v, pair)
            h1, h2 = pair
            pulled = res[h1] + res[h2]
            res[ne] = pulled
            res[flip(ne)] = -pulled
        elif kind == "contract":
            if len(move) != 2:
                raise PreconditionError(f"malformed contract move {move!r}")
            e = move[1]
            if e == LOOP_EDGE:
                raise PreconditionError("the move sequence shrinks the loop")
            current = contract_edge(current, e)
            res.pop(e, None)
            res.pop(flip(e), None)
        else:
            raise PreconditionError(f"unknown move kind {move[0]!r}")
    if current != g:
        raise PreconditionError("moves do not reach the requested graph")
    return ResidueAssignment(graph=g, letters=letters, trunc=trunc, residues=res)


@dataclass(frozen=True)
class MultiSeries:
    """Sparse multivariate series over Fraction, truncated in total degree.

    Finite negative exponent ranges are allowed; the truncation order bounds
    the total degree of every stored term.
    """

    variables: tuple[str, ...]
    trunc: int
    terms: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        if self.trunc < 0:
            raise PreconditionError("negative truncation order")
        width = len(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, c in self.terms.items():
            key = tuple(int(k) for k in key)
            if len(key) != width:
                raise PreconditionError("exponent arity mismatch")
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c == 0 or sum(key) > self.trunc:
                continue
            clean[key] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def const(cls, variables: Sequence[str], trunc: int, c) -> "MultiSeries":
        zero = (0,) * len(tuple(variables))
        return cls(tuple(variables), trunc, {zero: Fraction(c)})

    @classmethod
    def variable(cls, variables: Sequence[str], trunc: int, name: str) -> "MultiSeries":
        variables = tuple(variables)
        if name not in variables:
            raise PreconditionError(f"unknown variable {name!r}")
        key = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, trunc, {key: Fraction(1)})

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PreconditionError(f"unknown variable {name!r}") from None

    def coefficient(self, key: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(int(k) for k in key), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, order: int) -> "MultiSeries":
        """Drop terms of total degree above order; the ring truncation is kept."""
        if order >= self.trunc:
            return self
        kept = {k: c for k, c in self.terms.items() if sum(k) <= order}
        return MultiSeries(self.variables, self.trunc, kept)

    def _coerce(self, other) -> "MultiSeries | None":
        if isinstance(other, MultiSeries):
            if other.variables != self.variables:
                raise PreconditionError("mixed series contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiSeries.const(self.variables, self.trunc, other)
        return None

    def __add__(self, other) -> "MultiSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return MultiSeries(self.variables, min(self.trunc, o.trunc), out)

    __radd__ = __add__

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.variables, self.trunc, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "MultiSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "MultiSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "MultiSeries":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cap = min(self.trunc, o.trunc)
        small, large = (self.terms, o.terms) if len(self.terms) <= len(o.terms) else (o.terms, self.terms)
        staged = [(k, sum(k), c) for k, c in large.items()]
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in small.items():
            d1 = sum(k1)
            for k2, d2, c2 in staged:
                if d1 + d2 > cap:
                    continue
                key = tuple(i + j for i, j in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiSeries(self.variables, cap, out)

    __rmul__ = __mul__

    def inverse(self, order: int | None = None) -> "MultiSeries":
        """Multiplicative inverse by Newton iteration, doubling the order."""
        if any(k < 0 for key in self.terms for k in key):
            raise PreconditionError("inverse needs a power-series element")
        c0 = self.constant_term()
        if c0 == 0:
            raise PreconditionError("inverse of a non-unit series")
        cap = self.trunc if order is None else min(order, self.trunc)
        g = MultiSeries.const(self.variables, self.trunc, Fraction(1) / c0)
        two = MultiSeries.const(self.variables, self.trunc, 2)
        p = 1
        while True:
            g = (g * (two - self.truncate(p) * g)).truncate(p)
            if p >= cap:
                return g
            p = min(2 * p, cap)

    def shift(self, name: str, power: int) -> "MultiSeries":
        """Multiply by the named variable to the given (possibly negative) power."""
        i = self._index(name)
        out = {k[:i] + (k[i] + power,) + k[i + 1:]: c for k, c in self.terms.items()}
        return MultiSeries(self.variables, self.trunc, out)

    def divide_exact(self, name: str, power: int = 1) -> "MultiSeries":
        i = self._index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for k, c in self.terms.items():
            if k[i] < power:
                raise PreconditionError(f"series is not divisible by {name}^{power}")
            out[k[:i] + (k[i] - power,) + k[i + 1:]] = c
        return MultiSeries(self.variables, self.trunc, out)

    def specialize(self, name: str, value) -> "MultiSeries":
        i = self._index(name)
        value = Fraction(value)
        out: dict[tuple[int, ...], Fraction] = {}
        for key, c in self.terms.items():
            k = key[i]
            if k < 0 and value == 0:
                raise PreconditionError(f"pole in {name!r} at the requested value")
            scaled = c * value ** k if k else c
            if scaled == 0:
                continue
            nk = key[:i] + (0,) + key[i + 1:]
            out[nk] = out.get(nk, Fraction(0)) + scaled
        return MultiSeries(self.variables, self.trunc, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "<series 0>"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            mono = "".join(
                f"*{v}^{k}" if k != 1 else f"*{v}"
                for v, k in zip(self.variables, key)
                if k
            )
            bits.append(f"{self.terms[key]}{mono}")
        return "<series " + " + ".join(bits[:6]) + (" + ..." if len(bits) > 6 else "") + ">"


@dataclass(frozen=True)
class SeriesRing:
    """Gluing context: exact rational point per branch, formal y per edge."""

    graph: StableGraph
    variables: tuple[str, ...]
    trunc: int
    x: Mapping[str, object]

    @classmethod
    def for_graph(cls, graph: StableGraph, x: Mapping[str, object], trunc: int) -> "SeriesRing":
        if trunc < 1:
            raise PreconditionError("truncation order must be at least 1")
        vals: dict[str, object] = {}
        for h in graph.all_branches():
            if h not in x:
                raise PreconditionError(f"missing specialization for branch {h!r}")
            v = x[h]
            vals[h] = INFINITY if v == INFINITY else Fraction(v)
        unknown = sorted(set(x) - set(vals))
        if unknown:
            raise PreconditionError(f"specialization names unknown branches {unknown}")
        for v in graph.vertices:
            at = graph.branches_at(v)
            if sum(1 for h in at if vals[h] == INFINITY) > 1:
                raise PreconditionError(f"more than one infinite branch at vertex {v!r}")
            finite = [vals[h] for h in at if vals[h] != INFINITY]
            if len(set(finite)) != len(finite):
                raise PreconditionError(f"coincident branch values at vertex {v!r}")
        for e in graph.edges:
            if vals[e] == vals[flip(e)]:
                raise PreconditionError(f"edge {e!r} has equal end values")
        variables = tuple(sorted("y_" + e for e in graph.edges))
        return cls(graph=graph, variables=variables, trunc=trunc, x=vals)

    def y_name(self, e: str) -> str:
        if e not in self.graph.edges:
            raise PreconditionError(f"unknown edge {e!r}")
        return "y_" + e

    def y(self, e: str) -> MultiSeries:
        return MultiSeries.variable(self.variables, self.trunc, self.y_name(e))

    def const(self, c) -> MultiSeries:
        return MultiSeries.const(self.variables, self.trunc, c)

    def value(self, h: str):
        try:
            return self.x[h]
        except KeyError:
            raise PreconditionError(f"unknown branch {h!r}") from None


@dataclass(frozen=True)
class MoebiusMap:
    """2x2 matrix over MultiSeries acting by fractional linear maps."""

    a: MultiSeries
    b: MultiSeries
    c: MultiSeries
    d: MultiSeries

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> MultiSeries:
        return self.a * self.d - self.b * self.c

    def apply(self, z) -> MultiSeries:
        num = self.a * z + self.b
        den = self.c * z + self.d
        return num * den.inverse()


def _frame_column(v) -> tuple[Fraction, Fraction]:
    if v == INFINITY:
        return Fraction(1), Fraction(0)
    return v, Fraction(1)


def phi_matrix(h: str, ring: SeriesRing) -> MoebiusMap:
    """Gluing map of one oriented edge: diag(1, y) conjugated into the frame
    fixing the two end values, normalized so its determinant is exactly y."""
    e = edge_of(h)
    if e not in ring.graph.edges:
        raise PreconditionError(f"branch {h!r} does not belong to an edge")
    p, r = _frame_column(ring.value(h))
    q, s = _frame_column(ring.value(flip(h)))
    detf = p * s - q * r
    if detf == 0:
        raise PreconditionError(f"coincident end values on edge {e!r}")
    y = ring.y(e)
    return MoebiusMap(
        ring.const(p * s / detf) - y * (q * r / detf),
        ring.const(-p * q / detf) + y * (p * q / detf),
        ring.const(r * s / detf) - y * (r * s / detf),
        ring.const(-q * r / detf) + y * (p * s / detf),
    )


def compose_path(path: Sequence[str], ring: SeriesRing) -> MoebiusMap:
    """Product of edge gluing maps along a reduced path, last factor leftmost."""
    if not path:
        raise PreconditionError("empty path")
    for h, hn in zip(path, path[1:]):
        if hn == flip(h):
            raise PreconditionError(f"path is not reduced at {h!r}, {hn!r}")
        if ring.graph.branch_base(hn) != ring.graph.branch_base(flip(h)):
            raise PreconditionError(f"branches {h!r} and {hn!r} are not consecutive")
    out = phi_matrix(path[0], ring)
    for h in path[1:]:
        out = phi_matrix(h, ring) @ out
    return out


def fixed_points_multiplier(m: MoebiusMap) -> tuple[MultiSeries, MultiSeries, MultiSeries]:
    """Newton-lift the two fixed points from their y = 0 values and return
    them with the eigenvalue ratio (attracting point first).

    A fixed point z is a root of f(z) = c z^2 + (d - a) z - b.  Each root is
    lifted by a coupled Newton iteration (Brent & Zimmermann, Modern Computer
    Arithmetic, section 4.2): z <- z - f(z) w, where w approximates
    1 / f'(z) = 1 / (2 c z + d - a) and is refined by its own Newton step
    w <- w (2 - f'(z) w) in the same loop, so the correct order of both
    doubles at every step without a separate inversion.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    a0, b0, c0, d0 = (
        a.constant_term(),
        b.constant_term(),
        c.constant_term(),
        d.constant_term(),
    )
    if a0 * d0 != b0 * c0:
        raise PreconditionError("determinant does not vanish at y = 0")
    if c0 == 0:
        raise PreconditionError("fixed point at infinity, lifting fails")
    r_att = a0 / c0
    r_rep = -d0 / c0
    if r_att == r_rep:
        raise PreconditionError("coincident fixed points at y = 0, lifting fails")
    order = a.trunc
    iters = max((order - 1).bit_length() + 1, 1)
    dma = d - a
    variables = a.variables

    def lift(z0: Fraction) -> MultiSeries:
        # f'(z0) at y = 0 is +-(a0 + d0), nonzero since the fixed points differ
        z = MultiSeries.const(variables, order, z0)
        w = MultiSeries.const(variables, order, 1 / (2 * c0 * z0 + d0 - a0))
        p = 1
        for _ in range(iters):
            p = min(2 * p, order)
            w = (w * (2 - (2 * (c * z) + dma).truncate(p) * w)).truncate(p)
            z = (z - ((c * z + dma) * z - b).truncate(p) * w).truncate(p)
        return z

    alpha = lift(r_att)
    alpha_rep = lift(r_rep)
    lam = c * alpha + d
    beta = (c * alpha_rep + d) * lam.inverse()
    return alpha, alpha_rep, beta


def contraction_parameter_check(
    g: StableGraph,
    h0: str,
    h1: str,
    h2: str,
    x: Mapping[str, object],
    trunc: int,
) -> dict:
    """Verify that the two pulled points glue back together to first order.

    h0 is the branch of the expansion edge based at the vertex carrying the
    pulled branches h1, h2.  Their image difference under the gluing map of
    that edge must be the edge's parameter times a unit.
    """
    e0 = edge_of(h0)
    if e0 not in g.edges:
        raise PreconditionError(f"branch {h0!r} does not belong to an edge")
    if h1 == h2:
        raise PreconditionError("the two pulled branches must differ")
    v0 = g.branch_base(h0)
    for h in (h1, h2):
        if not g.has_branch(h) or g.branch_base(h) != v0:
            raise PreconditionError(f"branch {h!r} is not based at {v0!r}")
    ring = SeriesRing.for_graph(g, x, trunc)
    z1 = ring.value(h1)
    z2 = ring.value(h2)
    if INFINITY in (z1, z2):
        raise PreconditionError("pulled branches must carry finite values")
    if ring.value(flip(h0)) == INFINITY:
        raise PreconditionError("the far node coordinate must be finite")
    gluing = phi_matrix(flip(h0), ring)
    diff = gluing.apply(z1) - gluing.apply(z2)
    svar = ring.y_name(e0)
    if not diff.specialize(svar, 0).is_zero():
        raise PreconditionError("difference is not divisible by the smoothing parameter")
    unit = diff.divide_exact(svar)
    u0 = unit.constant_term()
    if u0 == 0:
        raise PreconditionError("unit part degenerates at y = 0")
    return {
        "edge": e0,
        "parameter": svar,
        "passes": True,
        "unit_constant_term": u0,
        "unit": unit,
        "difference": diff,
    }


def graph_to_dict(g: StableGraph, x: Mapping[str, object] | None = None) -> dict:
    out: dict = {
        "vertices": list(g.vertices),
        "edges": {e: [a, b] for e, (a, b) in g.edges.items()},
        "tails": dict(g.tails),
        "numbering": dict(g.numbering),
    }
    if x is not None:
        out["x"] = {
            h: (INFINITY if v == INFINITY else str(Fraction(v)))
            for h, v in sorted(x.items())
        }
    return out


def graph_from_dict(data) -> tuple[StableGraph, dict | None]:
    """Decode a graph document; returns the graph and an optional specialization."""
    if not isinstance(data, Mapping):
        raise ParseError("graph document must be a mapping")
    try:
        vertices = data["vertices"]
        edges_raw = data["edges"]
        tails_raw = data["tails"]
        numbering_raw = data["numbering"]
    except KeyError as exc:
        raise ParseError(f"graph document is missing field {exc.args[0]!r}") from None
    if not isinstance(edges_raw, Mapping) or not isinstance(tails_raw, Mapping) or not isinstance(numbering_raw, Mapping):
        raise ParseError("edges, tails, and numbering must be mappings")
    if not isinstance(vertices, (list, tuple)) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("vertices must be a list of vertex names")
    edges: dict[str, tuple[str, str]] = {}
    for e, ends in edges_raw.items():
        if not isinstance(ends, (list, tuple)) or len(ends) != 2:
            raise ParseError(f"edge {e!r} needs exactly two endpoints")
        if not all(isinstance(v, str) for v in ends):
            raise ParseError(f"endpoints of edge {e!r} must be vertex names")
        edges[e] = (ends[0], ends[1])
    for t, v in tails_raw.items():
        if not isinstance(v, str):
            raise ParseError(f"tail {t!r} must name a vertex")
    numbering: dict[str, int] = {}
    for t, i in numbering_raw.items():
        if isinstance(i, bool) or (isinstance(i, float) and not i.is_integer()):
            raise ParseError(f"numbering value {i!r} of tail {t!r} is not an integer")
        try:
            numbering[t] = int(i)
        except (TypeError, ValueError):
            raise ParseError("numbering values must be integers") from None
    try:
        g = StableGraph(tuple(vertices), edges, dict(tails_raw), numbering)
    except PreconditionError as exc:
        raise ParseError(f"bad graph document: {exc}") from None
    x_raw = data.get("x")
    if x_raw is None:
        return g, None
    if not isinstance(x_raw, Mapping):
        raise ParseError("specialization must be a mapping")
    x: dict[str, object] = {}
    for h, v in x_raw.items():
        if v == INFINITY:
            x[h] = INFINITY
            continue
        try:
            x[h] = Fraction(str(v))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational value {v!r} for branch {h!r}") from None
    return g, x
