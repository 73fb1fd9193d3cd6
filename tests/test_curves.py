import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tateperiods.curves import (
    INFINITY,
    MoebiusMap,
    MultiSeries,
    SeriesRing,
    StableGraph,
    basic_graph,
    compose_path,
    contract_edge,
    contraction_parameter_check,
    cycle_edges,
    edge_of,
    expand_vertex,
    expansion_names,
    fixed_points_multiplier,
    flip,
    graph_from_dict,
    graph_to_dict,
    phi_matrix,
    residue_assignment,
    validate_graph,
)
from tateperiods.errors import ParseError, PreconditionError
from tateperiods.ncalg import NCSeries, lie_bracket
from test_acceptance import move_candidates


def residue_letters(n):
    return tuple(f"Xt{i}" for i in range(1, n)) + ("T", "A")


def bracket_ta(letters, N):
    T = NCSeries.letter(letters, N, Fraction(1), "T")
    A = NCSeries.letter(letters, N, Fraction(1), "A")
    return lie_bracket(T, A)


def distinct_specialization(g, rng):
    pool = sorted(set(Fraction(a, b) for a in range(-9, 10) for b in range(1, 6)))
    rng.shuffle(pool)
    return {h: pool[i] for i, h in enumerate(g.all_branches())}


def test_basic_graph_reports():
    report = validate_graph(basic_graph(2))
    assert report == {"genus": 1, "n": 2, "stable": True, "trivalent": True}
    assert set(basic_graph(2).branches_at("v0")) == {"e", "t1", "t2"}
    assert set(basic_graph(2).branches_at("v1")) == {"-e", "l", "-l"}
    report4 = validate_graph(basic_graph(4))
    assert report4["n"] == 4 and not report4["trivalent"]


def test_single_vertex_basic_graph():
    g = basic_graph(1)
    assert validate_graph(g) == {"genus": 1, "n": 1, "stable": True, "trivalent": True}
    assert set(g.branches_at("v0")) == {"l", "-l", "t1"}


def test_unstable_and_disconnected_rejected():
    bare = StableGraph(("a", "b"), {"e": ("a", "b")}, {}, {})
    with pytest.raises(PreconditionError, match="unstable"):
        validate_graph(bare)
    split = StableGraph(
        ("a", "b"),
        {"p": ("a", "a"), "q": ("b", "b")},
        {"t1": "a", "t2": "b"},
        {"t1": 1, "t2": 2},
    )
    with pytest.raises(PreconditionError, match="disconnected"):
        validate_graph(split)


def test_structural_validation():
    with pytest.raises(PreconditionError, match="endpoint"):
        StableGraph(("a",), {"e": ("a", "b")}, {}, {})
    with pytest.raises(PreconditionError, match="used twice"):
        StableGraph(("a",), {"x": ("a", "a")}, {"x": "a"}, {"x": 1})
    with pytest.raises(PreconditionError, match="bijection"):
        StableGraph(("a",), {"l": ("a", "a")}, {"t1": "a"}, {"t1": 2})
    with pytest.raises(PreconditionError, match="bad"):
        StableGraph(("a",), {"-e": ("a", "a")}, {}, {})


def test_expand_pulls_branches():
    g = basic_graph(3)
    ex = expand_vertex(g, "v0", ("t1", "t2"))
    assert validate_graph(ex) == {"genus": 1, "n": 3, "stable": True, "trivalent": True}
    assert ex.edges["e0"] == ("v0", "v2")
    assert ex.tails["t1"] == "v2" and ex.tails["t2"] == "v2"
    assert ex.tails["t3"] == "v0"


def test_contract_restores_expansion():
    g = basic_graph(4)
    ex1 = expand_vertex(g, "v0", ("t1", "t2"))
    ex2 = expand_vertex(ex1, "v0", ("t3", "t4"))
    assert expansion_names(g) == ("v2", "e0")
    assert expansion_names(ex1) == ("v3", "e1")
    assert contract_edge(ex2, "e1") == ex1
    assert contract_edge(ex1, "e0") == g


def test_expand_preconditions():
    g = basic_graph(3)
    ex = expand_vertex(g, "v0", ("t1", "t2"))
    with pytest.raises(PreconditionError, match="at least 4"):
        expand_vertex(ex, "v2", ("t1", "t2"))
    with pytest.raises(PreconditionError, match="must differ"):
        expand_vertex(g, "v0", ("t1", "t1"))
    with pytest.raises(PreconditionError, match="not based"):
        expand_vertex(g, "v1", ("t1", "t2"))
    with pytest.raises(PreconditionError, match="unknown vertex"):
        expand_vertex(g, "w", ("t1", "t2"))


def test_contract_preconditions():
    g = basic_graph(2)
    with pytest.raises(PreconditionError, match="loop"):
        contract_edge(g, "l")
    with pytest.raises(PreconditionError, match="unknown edge"):
        contract_edge(g, "z")


def test_loop_migration_round_trip():
    g = StableGraph(
        ("w",),
        {"l": ("w", "w")},
        {"t1": "w", "t2": "w"},
        {"t1": 1, "t2": 2},
    )
    ex = expand_vertex(g, "w", ("l", "-l"))
    assert validate_graph(ex)["trivalent"]
    assert ex.edges["l"] == ("v0", "v0")
    assert ex.edges["e0"] == ("w", "v0")
    assert contract_edge(ex, "e0") == g


def test_cycle_edges():
    assert cycle_edges(basic_graph(1)) == ("l",)
    assert cycle_edges(basic_graph(4)) == ("l",)
    g = expand_vertex(contract_edge(basic_graph(3), "e"), "v0", ("l", "t1"))
    g = expand_vertex(g, "v0", ("t2", "t3"))
    assert cycle_edges(g) == ("e0", "l")  # e1 is a leaf edge to the tails t2, t3


def test_basic_residues():
    ra = residue_assignment(basic_graph(2), [], 4)
    letters = residue_letters(2)
    assert ra.letters == letters
    ta = bracket_ta(letters, 4)
    assert ra.residue("e") == -ta
    assert ra.residue("-e") == ta
    assert ra.residue("t1") == NCSeries.letter(letters, 4, Fraction(1), "Xt1")
    assert ra.residue("t2") == ta - ra.residue("t1")
    assert all(s.is_zero() for s in ra.vertex_sums().values())


def test_single_vertex_residues():
    ra = residue_assignment(basic_graph(1), [], 5)
    assert ra.letters == ("T", "A")
    assert ra.residue("t1") == bracket_ta(("T", "A"), 5)
    assert ra.vertex_sum("v0").is_zero()


def test_expansion_residue_values():
    g = basic_graph(3)
    ex = expand_vertex(g, "v0", ("t1", "t2"))
    base = residue_assignment(g, [], 3)
    ra = residue_assignment(ex, [("expand", "v0", ("t1", "t2"))], 3)
    assert ra.residue("e0") == base.residue("t1") + base.residue("t2")
    assert ra.residue("-e0") == -(base.residue("t1") + base.residue("t2"))
    for h in ("t1", "t2", "t3", "e", "-e", "l", "-l"):
        assert ra.residue(h) == base.residue(h)
    assert all(s.is_zero() for s in ra.vertex_sums().values())


def test_residue_move_validation():
    g = basic_graph(3)
    with pytest.raises(PreconditionError, match="shrinks the loop"):
        residue_assignment(g, [("contract", "l")], 3)
    with pytest.raises(PreconditionError, match="do not reach"):
        residue_assignment(g, [("expand", "v0", ("t1", "t2"))], 3)
    with pytest.raises(PreconditionError, match="unknown move"):
        residue_assignment(g, [("twist", "v0")], 3)
    with pytest.raises(PreconditionError, match="malformed"):
        residue_assignment(g, [("expand",)], 3)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 5), st.data())
def test_random_moves_keep_vertex_sums_zero(n, data):
    g, moves = basic_graph(n), []
    for _ in range(data.draw(st.integers(0, 8))):
        candidates = move_candidates(g)
        if not candidates:
            break
        move = data.draw(st.sampled_from(candidates))
        g = expand_vertex(g, *move[1:]) if move[0] == "expand" else contract_edge(g, move[1])
        moves.append(move)
    ra = residue_assignment(g, moves, 3)
    assert all(s.is_zero() for s in ra.vertex_sums().values()), moves


def test_residue_route_independence():
    g = basic_graph(4)
    target = expand_vertex(g, "v0", ("t1", "t2"))
    direct = residue_assignment(target, [("expand", "v0", ("t1", "t2"))], 3)
    detour = residue_assignment(
        target,
        [
            ("expand", "v0", ("t1", "t2")),
            ("expand", "v0", ("t3", "t4")),
            ("contract", "e1"),
        ],
        3,
    )
    assert direct.graph == detour.graph
    assert set(direct.residues) == set(detour.residues)
    for h, s in direct.residues.items():
        assert detour.residues[h] == s


def test_multiseries_arithmetic():
    variables = ("u", "v")
    f = MultiSeries.const(variables, 6, 2) + MultiSeries.variable(variables, 6, "u")
    inv = f.inverse()
    one = MultiSeries.const(variables, 6, 1)
    assert f * inv == one
    g = f * MultiSeries.variable(variables, 6, "v")
    assert g.divide_exact("v") == f
    with pytest.raises(PreconditionError, match="not divisible"):
        f.divide_exact("u")
    assert g.specialize("v", 0).is_zero()
    assert f.specialize("u", Fraction(1, 2)).constant_term() == Fraction(5, 2)
    laurent = g.shift("v", -2)
    assert laurent.coefficient((0, -1)) == 2
    with pytest.raises(PreconditionError, match="power-series"):
        laurent.inverse()
    with pytest.raises(PreconditionError, match="non-unit"):
        MultiSeries.variable(variables, 6, "u").inverse()
    with pytest.raises(PreconditionError, match="mixed series"):
        f + MultiSeries.const(("u",), 6, 1)


def test_phi_defining_identity():
    rng = random.Random(11)
    g = basic_graph(2)
    xs = distinct_specialization(g, rng)
    ring = SeriesRing.for_graph(g, xs, 6)
    for h in ("e", "-e", "l", "-l"):
        phi = phi_matrix(h, ring)
        y = ring.y(edge_of(h))
        assert phi.det() == y
        xh = ring.value(h)
        xmh = ring.value(flip(h))
        z = Fraction(17, 5)
        num = phi.a * z + phi.b
        den = phi.c * z + phi.d
        lhs = (num - xh * den) * ring.const(z - xmh)
        rhs = y * (num - xmh * den) * ring.const(z - xh)
        assert lhs == rhs
        assert phi.apply(z).specialize(ring.y_name(edge_of(h)), 0) == ring.const(xh).specialize(ring.y_name(edge_of(h)), 0)


def test_phi_infinite_branch():
    g = basic_graph(2)
    xs = {
        "e": INFINITY,
        "-e": Fraction(0),
        "t1": Fraction(1),
        "t2": Fraction(-1),
        "l": Fraction(2),
        "-l": Fraction(3),
    }
    ring = SeriesRing.for_graph(g, xs, 5)
    away = phi_matrix("-e", ring)
    assert away.det() == ring.y("e")
    assert away.apply(Fraction(7)).specialize("y_e", 0) == ring.const(0).specialize("y_e", 0)
    toward = phi_matrix("e", ring)
    assert toward.det() == ring.y("e")
    with pytest.raises(PreconditionError, match="infinity"):
        fixed_points_multiplier(toward)


def test_ring_validation():
    g = basic_graph(2)
    xs = {h: Fraction(i) for i, h in enumerate(g.all_branches())}
    clash = dict(xs)
    clash["t1"] = clash["e"]
    with pytest.raises(PreconditionError, match="coincident"):
        SeriesRing.for_graph(g, clash, 4)
    short = dict(xs)
    short.pop("-l")
    with pytest.raises(PreconditionError, match="missing specialization"):
        SeriesRing.for_graph(g, short, 4)
    doubly_infinite = dict(xs)
    doubly_infinite["l"] = INFINITY
    doubly_infinite["-l"] = INFINITY
    with pytest.raises(PreconditionError, match="infinite"):
        SeriesRing.for_graph(g, doubly_infinite, 4)


def test_compose_path_basics():
    rng = random.Random(3)
    g = basic_graph(2)
    ring = SeriesRing.for_graph(g, distinct_specialization(g, rng), 5)
    single = compose_path(["e"], ring)
    direct = phi_matrix("e", ring)
    assert single.a == direct.a and single.b == direct.b
    twice = compose_path(["l", "l"], ring)
    squared = phi_matrix("l", ring) @ phi_matrix("l", ring)
    assert twice.a == squared.a and twice.d == squared.d
    with pytest.raises(PreconditionError, match="not reduced"):
        compose_path(["e", "-e"], ring)
    with pytest.raises(PreconditionError, match="not consecutive"):
        compose_path(["e", "e"], ring)
    with pytest.raises(PreconditionError, match="empty"):
        compose_path([], ring)


def test_compose_path_concatenation():
    rng = random.Random(5)
    g = basic_graph(2)
    ring = SeriesRing.for_graph(g, distinct_specialization(g, rng), 5)
    whole = compose_path(["e", "l", "l"], ring)
    left = compose_path(["e"], ring)
    right = compose_path(["l", "l"], ring)
    glued = right @ left
    assert whole.a == glued.a and whole.b == glued.b
    assert whole.c == glued.c and whole.d == glued.d


def test_single_edge_fixed_points():
    rng = random.Random(9)
    g = basic_graph(2)
    xs = distinct_specialization(g, rng)
    ring = SeriesRing.for_graph(g, xs, 6)
    for h in ("e", "-e", "l"):
        alpha, alpha_rep, beta = fixed_points_multiplier(compose_path([h], ring))
        assert alpha == ring.const(xs[h])
        assert alpha_rep == ring.const(xs[flip(h)])
        assert beta == ring.y(edge_of(h))


def test_multiplier_identity_length_three():
    rng = random.Random(21)
    g = expand_vertex(basic_graph(3), "v0", ("t1", "t2"))
    xs = distinct_specialization(g, rng)
    ring = SeriesRing.for_graph(g, xs, 8)
    path = ["-e0", "e", "l"]
    m = compose_path(path, ring)
    alpha, alpha_rep, beta = fixed_points_multiplier(m)
    for z in (Fraction(11, 13), Fraction(-2, 7)):
        num = m.a * z + m.b
        den = m.c * z + m.d
        lhs = (num - alpha * den) * (ring.const(z) - alpha_rep)
        rhs = beta * (num - alpha_rep * den) * (ring.const(z) - alpha)
        assert lhs == rhs
    quotient = beta
    for h in path:
        quotient = quotient.divide_exact(ring.y_name(edge_of(h)))
    assert quotient.constant_term() != 0


def test_fixed_points_preconditions():
    variables = ("y_e",)
    one = MultiSeries.const(variables, 4, 1)
    zero = MultiSeries.const(variables, 4, 0)
    with pytest.raises(PreconditionError, match="determinant"):
        fixed_points_multiplier(MoebiusMap(one, zero, zero, one))
    rng = random.Random(2)
    g = basic_graph(2)
    ring = SeriesRing.for_graph(g, distinct_specialization(g, rng), 4)
    phi = phi_matrix("e", ring)
    affine = MoebiusMap(phi.a, phi.b, ring.const(0), phi.d)
    with pytest.raises(PreconditionError, match="vanish|infinity"):
        fixed_points_multiplier(affine)


def test_contraction_check_passes():
    rng = random.Random(31)
    g = expand_vertex(basic_graph(3), "v0", ("t1", "t2"))
    xs = distinct_specialization(g, rng)
    report = contraction_parameter_check(g, "-e0", "t1", "t2", xs, 6)
    assert report["passes"] and report["parameter"] == "y_e0"
    z1, z2 = xs["t1"], xs["t2"]
    x_rep, x_att = xs["-e0"], xs["e0"]
    expected = (z1 - z2) * (x_att - x_rep) ** 2 / ((z1 - x_rep) * (z2 - x_rep))
    assert report["unit_constant_term"] == expected
    assert report["difference"].specialize("y_e0", 0).is_zero()
    assert report["difference"].divide_exact("y_e0") == report["unit"]


def test_contraction_check_preconditions():
    rng = random.Random(33)
    g = expand_vertex(basic_graph(3), "v0", ("t1", "t2"))
    xs = distinct_specialization(g, rng)
    degenerate = dict(xs)
    degenerate["t2"] = degenerate["t1"]
    with pytest.raises(PreconditionError, match="coincident|differ"):
        contraction_parameter_check(g, "-e0", "t1", "t2", degenerate, 6)
    with pytest.raises(PreconditionError, match="not based"):
        contraction_parameter_check(g, "e0", "t1", "t2", xs, 6)
    with pytest.raises(PreconditionError, match="must differ"):
        contraction_parameter_check(g, "-e0", "t1", "t1", xs, 6)
    far_inf = dict(xs)
    far_inf["e0"] = INFINITY
    with pytest.raises(PreconditionError, match="finite"):
        contraction_parameter_check(g, "-e0", "t1", "t2", far_inf, 6)


def test_contraction_check_seeded_sweep():
    rng = random.Random(47)
    for n in (3, 4):
        g = basic_graph(n)
        ex = expand_vertex(g, "v0", ("t1", "t2"))
        for _ in range(3):
            xs = distinct_specialization(ex, rng)
            report = contraction_parameter_check(ex, "-e0", "t1", "t2", xs, 6)
            assert report["passes"]
            assert report["unit_constant_term"] != 0


def test_graph_serialization_round_trip():
    g = expand_vertex(basic_graph(3), "v0", ("t1", "t2"))
    xs = {h: Fraction(i + 1, 3) for i, h in enumerate(g.all_branches())}
    xs["t3"] = INFINITY
    doc = graph_to_dict(g, xs)
    back, xs_back = graph_from_dict(doc)
    assert back == g
    assert xs_back == xs
    bare, nothing = graph_from_dict(graph_to_dict(g))
    assert bare == g and nothing is None


def test_graph_from_dict_errors():
    with pytest.raises(ParseError, match="mapping"):
        graph_from_dict([1, 2])
    with pytest.raises(ParseError, match="missing"):
        graph_from_dict({"vertices": ["a"]})
    doc = graph_to_dict(basic_graph(2))
    bad_edge = dict(doc)
    bad_edge["edges"] = {"e": ["v0"]}
    with pytest.raises(ParseError, match="two endpoints"):
        graph_from_dict(bad_edge)
    bad_edge["edges"] = {"l": [["v0"], "v0"]}
    with pytest.raises(ParseError, match="vertex names"):
        graph_from_dict(bad_edge)
    for field, value in (("vertices", [["v0"], "v1"]), ("tails", {"t1": ["v0"], "t2": "v0"})):
        bad = dict(doc)
        bad[field] = value
        with pytest.raises(ParseError, match="vertex"):
            graph_from_dict(bad)
    bad_x = dict(doc)
    bad_x["x"] = {"e": "one half"}
    with pytest.raises(ParseError, match="bad rational"):
        graph_from_dict(bad_x)
    broken = dict(doc)
    broken["numbering"] = {"t1": 1, "t2": 9}
    with pytest.raises(ParseError, match="bad graph"):
        graph_from_dict(broken)
    for value in (1.5, True):
        fractional = dict(doc)
        fractional["numbering"] = {"t1": value, "t2": 2}
        with pytest.raises(ParseError, match="not an integer"):
            graph_from_dict(fractional)
    integral = dict(doc)
    integral["numbering"] = {"t1": 1.0, "t2": 2}
    assert graph_from_dict(integral)[0] == basic_graph(2)
