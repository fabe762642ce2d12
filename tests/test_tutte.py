import hashlib
import random
import time

import pytest

from conftest import G
from oracles import (
    Activity,
    activities,
    activities_via_cycles,
    brute_contracting_sets,
    canonical_code,
    classical_tutte,
    connected_multigraph_structures,
    reference_recursive,
    reference_statesum,
    reference_walk,
    spanning_tree_count,
    specialize_psi,
    terminal_graph,
)
from reltutte import (
    ContractingSet,
    ProperLabeling,
    RelPolynomial,
    canonical_labeling,
    enumerate_contracting_sets,
    equal_mod_ideal,
    pivot_class_key,
    tutte_recursive,
    universal_tutte_statesum,
    variable,
    z_symbol,
)
from reltutte.errors import ImproperLabeling, InvalidContractingSet, NotRegular
from reltutte.graph import EMPTY_KEY, RECOLOR_ZERO, ColoredMultigraph, EdgeRecord, recolor_subset
from reltutte.poly import monomial_key
from reltutte.randgen import (
    RandomInstanceSpec,
    derived_seed,
    random_graph,
    random_graph_with_zero_edges,
    random_pointed_graph,
    random_proper_labeling,
)
from reltutte.tutte import _decreasing_order, _joined, _packing


def _cs(c=(), d=()):
    return ContractingSet(frozenset(c), frozenset(d))


def test_triangle_has_three_contracting_sets(triangle):
    got = {cs.contracting for cs in enumerate_contracting_sets(triangle)}
    assert len(got) == 3
    assert got == {frozenset(x) for x in ({"e1", "e2"}, {"e1", "e3"}, {"e2", "e3"})}
    assert spanning_tree_count(triangle) == 3


def test_parallel_pair_contracting_sets(parallel_pair):
    got = {cs.contracting for cs in enumerate_contracting_sets(parallel_pair)}
    assert got == {frozenset(), frozenset({"m"})}
    brute = {c for c, d in brute_contracting_sets(parallel_pair)}
    assert got == brute


def test_bridge_cannot_be_deleted():
    g = G("edge b u v color=mu")
    got = list(enumerate_contracting_sets(g))
    assert got == [_cs(c={"b"})]


def test_enumeration_matches_definition_randomized():
    for i in range(40):
        rng = random.Random(derived_seed(21, i))
        g = random_graph(rng, RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 6), zero_edges=(0, 2), connected=False))
        got = {(cs.contracting, cs.deleting) for cs in enumerate_contracting_sets(g)}
        assert got == set(brute_contracting_sets(g))


def test_triangle_activities():
    tri = G("edge e1 a b color=lam\nedge e2 b c color=lam\nedge e3 c a color=lam")
    lab = canonical_labeling(tri)
    acts = activities(tri, lab, _cs(c={"e2", "e3"}, d={"e1"}))
    assert acts == {"e1": Activity.EA, "e2": Activity.II, "e3": Activity.II}
    acts = activities(tri, lab, _cs(c={"e1", "e2"}, d={"e3"}))
    assert acts == {"e3": Activity.EI, "e1": Activity.IA, "e2": Activity.IA}


def test_single_bridge_internally_active():
    g = G("edge b u v color=mu")
    lab = canonical_labeling(g)
    assert activities(g, lab, _cs(c={"b"})) == {"b": Activity.IA}


def test_zero_edge_blocks_internal_activity(parallel_pair):
    lab = canonical_labeling(parallel_pair)
    acts = activities(parallel_pair, lab, _cs(c={"m"}))
    assert acts == {"m": Activity.II}
    assert activities_via_cycles(parallel_pair, lab, _cs(c={"m"})) == acts


def test_invalid_contracting_set_rejected(triangle):
    lab = canonical_labeling(triangle)
    with pytest.raises(InvalidContractingSet):
        activities(triangle, lab, _cs(c={"e1", "e2", "e3"}))
    with pytest.raises(InvalidContractingSet):
        terminal_graph(triangle, lab, _cs(c={"e1"}, d={"e2", "e3"}))


def test_activity_definitions_agree_exhaustively():
    seen = set()
    for g in connected_multigraph_structures(5):
        code = canonical_code(g)
        if code in seen:
            continue
        seen.add(code)
        lab = canonical_labeling(g)
        for cs in enumerate_contracting_sets(g):
            assert activities(g, lab, cs) == activities_via_cycles(g, lab, cs)


def test_activity_definitions_agree_with_zero_edges():
    for i in range(30):
        rng = random.Random(derived_seed(22, i))
        g = random_graph_with_zero_edges(rng, max_edges=6)
        lab = random_proper_labeling(rng, g)
        for cs in enumerate_contracting_sets(g, lab):
            assert activities(g, lab, cs) == activities_via_cycles(g, lab, cs)


def test_terminal_graphs(parallel_pair, triangle):
    lab = canonical_labeling(triangle)
    for cs in enumerate_contracting_sets(triangle):
        t = terminal_graph(triangle, lab, cs)
        assert t.edges == () and len(t.vertex_set) == 1
    lab = canonical_labeling(parallel_pair)
    t = terminal_graph(parallel_pair, lab, _cs(c={"m"}))
    assert pivot_class_key(t).codes == ("loop(z0)",)
    t = terminal_graph(parallel_pair, lab, _cs(d={"m"}))
    assert pivot_class_key(t).codes == ("bridge(z0)",)


def test_statesum_golden_values(triangle, parallel_pair):
    bridge = G("edge b u v color=lam")
    assert universal_tutte_statesum(bridge) == variable("X", "lam") * z_symbol(EMPTY_KEY)
    loop = G("edge l v v color=lam")
    assert universal_tutte_statesum(loop) == variable("Y", "lam") * z_symbol(EMPTY_KEY)

    got = universal_tutte_statesum(parallel_pair)
    from reltutte import parse_graph_text

    loop_key = pivot_class_key(parse_graph_text("edge h 1 1 color=z0 zero"))
    bridge_key = pivot_class_key(parse_graph_text("edge h 1 2 color=z0 zero"))
    want = variable("x", "mu") * z_symbol(loop_key) + variable("y", "mu") * z_symbol(bridge_key)
    assert got == want

    x, y = variable("x", "lam"), variable("y", "lam")
    cx, cy = variable("X", "lam"), variable("Y", "lam")
    want = (cx * cx * y + cx * x * y + x * x * cy) * z_symbol(EMPTY_KEY)
    assert universal_tutte_statesum(triangle) == want


def test_recursive_base_case():
    g = G("edge h 1 2 color=z0 zero")
    assert tutte_recursive(g) == z_symbol(pivot_class_key(g))


def test_statesum_of_edgeless_graph():
    from reltutte.graph import single_vertex

    assert universal_tutte_statesum(single_vertex()) == z_symbol(EMPTY_KEY)
    assert tutte_recursive(single_vertex()) == z_symbol(EMPTY_KEY)


def test_recursive_equals_statesum_on_fixtures(triangle, parallel_pair):
    for g in (triangle, parallel_pair):
        assert tutte_recursive(g) == universal_tutte_statesum(g)


def test_recursive_equals_statesum_randomized():
    for i in range(40):
        rng = random.Random(derived_seed(23, i))
        g = random_graph(rng, RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 6), zero_edges=(0, 2), connected=False))
        assert tutte_recursive(g) == universal_tutte_statesum(g)


def test_statesum_is_z_linear():
    for i in range(20):
        rng = random.Random(derived_seed(24, i))
        g = random_graph_with_zero_edges(rng, max_edges=8)
        p = universal_tutte_statesum(g)
        assert all(len(zs) == 1 for (_, zs), _c in p.terms())


def test_labeling_independence_randomized():
    for i in range(30):
        rng = random.Random(derived_seed(25, i))
        g = random_graph_with_zero_edges(rng, max_edges=8)
        lab1 = random_proper_labeling(rng, g)
        lab2 = random_proper_labeling(rng, g)
        p1 = universal_tutte_statesum(g, lab1)
        p2 = universal_tutte_statesum(g, lab2)
        assert equal_mod_ideal(p1, p2, trials=32, seed=derived_seed(25, i))


def _assert_same_terms(got, want):
    # equal terms, in the same dict order, holding z-keys with equal representatives
    assert got._terms == want._terms
    assert list(got._terms) == list(want._terms)
    for (_, keys), (_, refs) in zip(got._terms, want._terms):
        assert [k.representative for k in keys] == [r.representative for r in refs]


def _assert_matches_reference(g, lab=None):
    _assert_same_terms(universal_tutte_statesum(g, lab), reference_statesum(g, lab))


def test_statesum_matches_walk_reference_randomized():
    for i in range(1500):
        rng = random.Random(derived_seed(27, i))
        g = random_graph_with_zero_edges(rng, max_edges=9)
        _assert_matches_reference(g)
        _assert_matches_reference(g, random_proper_labeling(rng, g))
    for i in range(150):
        rng = random.Random(derived_seed(28, i))
        g = random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2)).graph
        _assert_matches_reference(g)
        _assert_matches_reference(g, random_proper_labeling(rng, g))


def _edge_cases():
    from reltutte import ColoredMultigraph
    from reltutte.graph import single_vertex

    return [
        ColoredMultigraph(),
        single_vertex(),
        G("edge h1 a b color=z0 zero\nedge h2 b b color=z1 zero"),
        G("edge l1 a a color=mu\nedge l2 a a color=rho\nedge l3 b b color=mu"),
        G("edge l1 a a color=mu\nedge h a b color=z0 zero"),
        ColoredMultigraph(G("edge e1 b c color=mu\nedge h c d color=z0 zero").edges, extra_vertices="adz"),
        ColoredMultigraph(G("edge e1 c a color=mu\nedge e2 a b color=mu\nedge h c b color=z0 zero").edges, extra_vertices="xy"),
    ]


def test_statesum_matches_walk_reference_edge_cases():
    for g in _edge_cases():
        _assert_matches_reference(g)


def _per_subset_sum(g, demotable, lab=None):
    """RelPolynomial.sum of the state sums of g with each subset of demotable
    demoted, in mask order: the edge with the largest label is the highest bit."""
    lab = lab or canonical_labeling(g)
    ranked = sorted(demotable, key=lambda e: lab[e])
    parts = []
    for mask in range(1 << len(ranked)):
        s = {e for j, e in enumerate(ranked) if mask >> j & 1}
        labels = {e: 0 if e in s else v for e, v in lab.labels.items()}
        parts.append(universal_tutte_statesum(recolor_subset(g, s, RECOLOR_ZERO), ProperLabeling(labels)))
    return RelPolynomial.sum(parts)


def test_demoted_statesum_matches_per_subset_sums():
    demoted = 0
    for i in range(400):
        rng = random.Random(derived_seed(35, i))
        g = random_graph_with_zero_edges(rng, max_edges=8) if i % 2 else random_graph(rng, RandomInstanceSpec(zero_edges=(0, 1)))
        color = rng.choice(g.regular_colors())
        demotable = [e for e in g.regular_ids() if g.edge(e).color == color and rng.random() < 0.7]
        lab = random_proper_labeling(rng, g) if i % 3 else None
        _assert_same_terms(universal_tutte_statesum(g, lab, demotable=demotable), _per_subset_sum(g, demotable, lab))
        demoted += len(demotable)
    assert demoted > 400


def test_demoted_statesum_edge_cases():
    cases = [
        (G("edge l a a color=lam\nedge f a b color=lam\nedge m b a color=mu"), ["l"]),  # a demotable loop
        (G("edge f a b color=lam\nedge m b c color=mu\nedge n c b color=mu"), ["f"]),  # a demotable bridge
        (G("edge f a b color=lam\nedge g b a color=lam\nedge h a b color=z0 zero"), ["f", "g"]),  # with a zero edge
        (G("edge f a a color=lam\nedge g a a color=lam"), ["f", "g"]),  # every edge demotable
    ]
    for g, demotable in cases:
        _assert_same_terms(universal_tutte_statesum(g, demotable=demotable), _per_subset_sum(g, demotable))
    # with no demotable edge, the edgeless graph included, the state sum is
    # the plain one, down to term order and representatives
    for g in _edge_cases() + [g for g, _ in cases]:
        _assert_same_terms(universal_tutte_statesum(g, demotable=()), reference_statesum(g))
    with pytest.raises(NotRegular):
        universal_tutte_statesum(cases[2][0], demotable=["h"])


def _walk_instance(i):
    """Graph and labeling for the walk comparison: loops, parallel and zero
    edges, isolated vertices, disconnected and pointed graphs."""
    rng = random.Random(derived_seed(33, i))
    if i % 5 == 4:
        g = random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2)).graph
    else:
        spec = RandomInstanceSpec(vertices=(1, 5), regular_edges=(0, 7), zero_edges=(0, 2), connected=i % 2 == 0)
        g = random_graph(rng, spec)
    return g, random_proper_labeling(rng, g) if i % 3 else canonical_labeling(g)


def test_integer_walk_matches_rebuilt_minor_walk():
    leaves = 0
    for i in range(1500):
        g, lab = _walk_instance(i)
        got = [(cs.contracting, cs.deleting) for cs in enumerate_contracting_sets(g, lab)]
        want = []
        for steps, _, _ in reference_walk(g, _decreasing_order(g, lab)):
            c = {e for e, act in steps if act in (Activity.IA, Activity.II)}
            want.append((c, {e for e, _ in steps} - c))
        assert got == want, i
        leaves += len(got)
        # the leaves' weights and terminal graphs, in the same order
        _assert_matches_reference(g, lab)
    assert leaves > 4000


def test_recursion_matches_rebuilt_minor_reference_randomized():
    for i in range(1500):
        rng = random.Random(derived_seed(29, i))
        g = random_graph_with_zero_edges(rng, max_edges=9)
        _assert_same_terms(tutte_recursive(g), reference_recursive(g))
    for i in range(200):
        rng = random.Random(derived_seed(30, i))
        g = random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2)).graph
        _assert_same_terms(tutte_recursive(g), reference_recursive(g))


def test_recursion_matches_rebuilt_minor_reference_edge_cases():
    for g in _edge_cases():
        _assert_same_terms(tutte_recursive(g), reference_recursive(g))


def _deep_graphs():
    """Graphs of 15-17 edges, so the recursion's trail is undone from deep down: the wheel W8 with one
    zero rim edge, K6 with one zero edge and the 3×4 grid with zero edges 0, 5 and 11, as in the
    perfbench ``walk`` corpus."""
    wheel = [(0, i, "mu") for i in range(1, 9)] + [(i, i % 8 + 1, "z0 zero" if i == 1 else "rho") for i in range(1, 9)]
    k6 = [(u, v, "z0 zero" if (u, v) == (0, 1) else ("mu", "rho")[(u + v) % 2]) for u in range(6) for v in range(u + 1, 6)]
    grid = [(v, v + 1, "mu") for v in range(12) if v % 4 < 3] + [(v, v + 4, "rho") for v in range(8)]
    grid = [(u, v, "z0 zero" if k in (0, 5, 11) else c) for k, (u, v, c) in enumerate(grid)]
    return [G("".join(f"edge e{k:02d} {u} {v} color={c}\n" for k, (u, v, c) in enumerate(es))) for es in (wheel, k6, grid)]


def test_recursion_matches_statesum_on_deep_trails():
    for g, edges, zero in zip(_deep_graphs(), (16, 15, 17), (1, 1, 3), strict=True):
        assert (len(g.edges), len(g.zero_ids())) == (edges, zero)
        _assert_same_terms(tutte_recursive(g), universal_tutte_statesum(g))


def test_recursion_counts_one_per_leaf():
    cases = []
    for i in range(60):
        rng = random.Random(derived_seed(38, i))
        cases.append(random_graph_with_zero_edges(rng, max_edges=9))
    for i in range(60):
        rng = random.Random(derived_seed(39, i))
        cases.append(random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2)).graph)
    assert sum(bool(g.zero_ids()) for g in cases) > 60
    for g in cases:
        leaves = sum(1 for _ in enumerate_contracting_sets(g))
        assert sum(c for _, c in tutte_recursive(g).terms()) == leaves


@pytest.mark.parametrize(
    "text, want",
    [
        ("".join(f"edge e{i} a a color=mu\n" for i in range(1200)) + "edge h a b color=z0 zero\n",
         "Y[mu]^1200·z{bridge(z0)}"),
        ("".join(f"edge e{i:04d} v{i} v{i + 1} color=mu\n" for i in range(1200)), "X[mu]^1200·z{}"),
        # several packed weight digits at depth; the pendant zero edge keeps every edge a bridge
        ("".join(f"edge e{i:03d} v{i} v{i + 1} color={('mu', 'rho', 'tau')[i % 3]}\n" for i in range(600))
         + "edge h v0 w color=z0 zero\n", "X[mu]^200·X[rho]^200·X[tau]^200·z{bridge(z0)}"),
    ],
    ids=["1200-loops", "1200-path", "600-path-three-colors"],
)
def test_walks_deeper_than_the_recursion_limit(text, want):
    g = G(text)
    assert tutte_recursive(g).render() == universal_tutte_statesum(g).render() == want
    (cs,) = enumerate_contracting_sets(g)
    loops = {e.id for e in g.edges if e.is_loop}
    assert cs.deleting == loops and cs.contracting == set(g.regular_ids()) - loops


def test_out_of_order_path_stays_fast():
    # unpadded ids put the canonical labels out of path order, so contractions build deep
    # union-find chains; a bridge test that stopped early without path halving went cubic here
    g = G("".join(f"edge e{i} v{i} v{i + 1} color=mu\n" for i in range(1200)) + "edge h v0 w color=z0 zero\n")
    t0 = time.perf_counter()
    renders = tutte_recursive(g).render(), universal_tutte_statesum(g).render()
    sets = list(enumerate_contracting_sets(g))
    elapsed = time.perf_counter() - t0
    assert renders == ("X[mu]^1200·z{bridge(z0)}",) * 2
    assert sets == [_cs(c=g.regular_ids())]
    assert elapsed < 3.0


def _full_join(part, a, b, ends):
    parent = list(part)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in ends:
        parent[find(u)] = find(v)
    return find(a) == find(b)


def test_joined_matches_a_full_join():
    rng = random.Random(derived_seed(44, 0))
    checked = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(2, 9)
        part = list(range(n))
        for v in range(n):  # merge a few random blocks, each named by its least vertex
            if rng.random() < 0.3:
                lo, hi = sorted((part[v], part[rng.randrange(n)]))
                part = [lo if r == hi else r for r in part]
        part = tuple(part)
        roots = sorted(set(part))
        if len(roots) < 2:
            continue
        ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]  # loops and parallels
        ends += [rng.choice(ends) for _ in range(rng.randint(0, 2)) if ends]  # demoted ends join again
        ra, rb = rng.sample(roots, 2)  # either root order, and any vertex of each block
        a, b = rng.choice([v for v in range(n) if part[v] == ra]), rng.choice([v for v in range(n) if part[v] == rb])
        want = _full_join(part, a, b, ends)
        for x, y in ((a, b), (b, a), (ra, rb), (rb, ra)):
            assert _joined(part, x, y, ends) == want, (part, x, y, ends)
        checked[want] += 1
    assert min(checked.values()) > 500


def _no_arithmetic(*args):
    raise AssertionError("polynomial arithmetic called")


def test_recursion_does_no_polynomial_arithmetic(monkeypatch):
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    k4 = G("".join(f"edge e{u}{v} {u} {v} color={'z0 zero' if (u, v) == (2, 3) else 'mu'}\n" for u, v in pairs))
    pointed = G(
        """
        edge ep a b color=nu pointed
        edge m1 b c color=mu
        edge m2 c a color=rho
        edge m3 a c color=mu
        edge m4 c d color=rho
        edge h d b color=z0 zero
        """
    )
    want = [universal_tutte_statesum(k4), universal_tutte_statesum(pointed)]
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RelPolynomial, name, _no_arithmetic)
    _assert_same_terms(tutte_recursive(k4), want[0])
    _assert_same_terms(tutte_recursive(pointed), want[1])


def test_walk_corpus_renders_are_pinned():
    # sha256 of the state sum's render of W8, K6 and the 3×4 grid, captured before the
    # terminal keys were taken per zero-edge projection
    want = [
        "fe8408c16e3c5f099b6903b36ff6bc43002151e801a8364f235ec38e739a048b",
        "322575d5e877ccbf773665764d0325ee8df54386ab49c82eb2e076b0ceb38514",
        "51f2b1520a068b41404dcfe9c20f89b604f8efdcf799dcb33ac4f29cf8f6630f",
    ]
    for g, digest in zip(_deep_graphs(), want, strict=True):
        text = universal_tutte_statesum(g).render()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert tutte_recursive(g).render() == text


def _distinct_terminal_graphs(g, lab):
    """Terminal graphs of g's contracting sets (oracle walk), told apart by their edges alone."""
    return len({
        frozenset((e.id, frozenset((e.u, e.v))) for e in terminal_graph(g, lab, cs).edges)
        for cs in enumerate_contracting_sets(g, lab)
    })


def _key_calls(monkeypatch, walk, *args, **kwargs):
    """The number of ``pivot_class_key`` calls one walk makes."""
    calls = []
    monkeypatch.setattr("reltutte.tutte.pivot_class_key", lambda t: calls.append(t) or pivot_class_key(t))
    walk(*args, **kwargs)
    monkeypatch.undo()
    return len(calls)


def test_one_pivot_key_per_zero_edge_projection(monkeypatch):
    zero_counts = set()
    for i in range(150):
        rng = random.Random(derived_seed(41, i))
        spec = RandomInstanceSpec(vertices=(1, 6), regular_edges=(0, 7), zero_edges=(0, 3), connected=i % 2 == 0)
        g = random_graph(rng, spec)
        if i % 3 == 0:
            g = ColoredMultigraph(g.edges, extra_vertices=g.vertex_set | {"iso"})
        zero_counts.add(len(g.zero_ids()))
        want = _distinct_terminal_graphs(g, canonical_labeling(g))
        for walk in (universal_tutte_statesum, tutte_recursive, universal_tutte_statesum):  # no state carries over
            assert _key_calls(monkeypatch, walk, g) == want, i
        if not g.zero_ids():
            assert want == 1
        if g.regular_ids():  # one key per projection within each demoted group
            color = rng.choice(g.regular_colors())
            demotable = [e for e in g.regular_ids() if g.edge(e).color == color][:3]
            lab = canonical_labeling(g)
            want = 0
            for mask in range(1 << len(demotable)):
                s = {e for j, e in enumerate(demotable) if mask >> j & 1}
                labels = ProperLabeling({e: 0 if e in s else v for e, v in lab.labels.items()})
                want += _distinct_terminal_graphs(recolor_subset(g, s, RECOLOR_ZERO), labels)
            for _ in range(2):
                assert _key_calls(monkeypatch, universal_tutte_statesum, g, demotable=demotable) == want, i
    assert zero_counts == {0, 1, 2, 3}


def test_packing_unpacks_as_monomial_key():
    nonempty = pivot_class_key(G("edge h a b color=z0 zero"))
    empty = pivot_class_key(ColoredMultigraph())  # empty codes, but not the EMPTY_KEY object
    assert empty == EMPTY_KEY and empty is not EMPTY_KEY
    for i in range(300):
        rng = random.Random(derived_seed(42, i))
        colors = ["mu", "rho", "tau"][: rng.randint(1, 3)]
        order = [EdgeRecord(f"e{j}", "a", "b", rng.choice(colors)) for j in range(rng.randint(1, 6))]
        unit, monomial = _packing(order)
        base = len(order) + 1
        exps = {s: 0 if i % 5 == 0 else rng.randrange(base) for s in unit}  # every fifth weight is 0
        w = sum(e * unit[s] for s, e in exps.items())
        for key in (nonempty, empty):
            got = monomial(w, key)
            assert got == monomial_key(exps.items(), (key,)), i
            assert got[1][0] is (key if key.codes else EMPTY_KEY)
        assert monomial(0, empty) == ((), (EMPTY_KEY,))


def test_improper_labeling_rejected(parallel_pair):
    with pytest.raises(ImproperLabeling):
        universal_tutte_statesum(parallel_pair, ProperLabeling({"m": 0, "h": 0}))
    with pytest.raises(ImproperLabeling):
        universal_tutte_statesum(parallel_pair, ProperLabeling({"m": 1, "h": 2}))
    with pytest.raises(ImproperLabeling):
        universal_tutte_statesum(parallel_pair, ProperLabeling({"m": 1}))


def test_pointed_edge_is_a_zero_edge_of_every_walk():
    for i in range(100):
        rng = random.Random(derived_seed(42, i))
        g = random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2)).graph
        ep = g.pointed_edge().id
        assert ep in g.zero_ids() and ep not in g.regular_ids()
        assert {g.edge(e).color for e in g.regular_ids()} == set(g.regular_colors())
        lab = canonical_labeling(g)
        assert lab[ep] == 0
        lab.validate(g)
        for label in (1, max(lab.labels.values()) + 1):
            with pytest.raises(ImproperLabeling, match="zero edges must be labeled 0"):
                ProperLabeling({**lab.labels, ep: label}).validate(g)


def _to_classical(g):
    """Specialize the universal polynomial to the two-variable Tutte polynomial."""
    p = specialize_psi(universal_tutte_statesum(g), lambda k: RelPolynomial.const(1))
    out = {}
    for (vars_, _zs), coeff in p.terms():
        exps = dict(vars_)
        i = exps.pop(("X", "c"), 0)
        j = exps.pop(("Y", "c"), 0)
        exps.pop(("x", "c"), None)
        exps.pop(("y", "c"), None)
        assert not exps
        out[(i, j)] = out.get((i, j), 0) + coeff
        if out[(i, j)] == 0:
            del out[(i, j)]
    return out


def test_classical_reduction_small_exhaustive():
    seen = set()
    for g in connected_multigraph_structures(4):
        code = canonical_code(g)
        if code in seen:
            continue
        seen.add(code)
        assert _to_classical(g) == classical_tutte(g), code


def test_contracting_set_count_equals_spanning_tree_count():
    for i in range(25):
        rng = random.Random(derived_seed(26, i))
        g = random_graph(rng, RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 7), zero_edges=(0, 0)))
        n = sum(1 for _ in enumerate_contracting_sets(g))
        assert n == spanning_tree_count(g)
