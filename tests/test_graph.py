import itertools
import random
import time

import pytest

from conftest import G
from oracles import (
    NotACutpoint,
    block_multisets_equal,
    blocks_bruteforce,
    canonical_code,
    colored_isomorphic,
    connected_multigraph_structures,
    cutpoints,
    iso_classes,
    reference_canonical_code,
    reference_components,
    reference_cutpoints,
    reference_is_bridge,
    reference_maximum_cliques,
    reference_pivot_class_key,
    two_sum,
    vertex_pivot,
)
from reltutte import (
    ColoredMultigraph,
    EdgeRecord,
    blocks,
    contract,
    delete,
    is_bridge,
    pivot_class_key,
    recolor_subset,
    splice_all,
)
from reltutte.errors import (
    ColorClash,
    ContractLoop,
    EngineError,
    LoopTwoSum,
    MixedColors,
    NotRegular,
    UnknownEdge,
)
from reltutte.graph import _maximum_cliques, components, is_connected, single_vertex
from reltutte.randgen import RandomInstanceSpec, derived_seed, random_graph
from reltutte.textio import format_graph

# random corpora with loops, parallel edges and isolated vertices
_SPEC_UP_TO_4 = RandomInstanceSpec(vertices=(2, 4), regular_edges=(1, 5), zero_edges=(0, 1), connected=False)
_SPEC_UP_TO_5 = RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 6), zero_edges=(0, 1), connected=False)
_SPEC_UP_TO_6 = RandomInstanceSpec(vertices=(2, 6), regular_edges=(1, 8), zero_edges=(0, 2), connected=False)
_SPEC_UP_TO_7 = RandomInstanceSpec(vertices=(1, 7), regular_edges=(0, 7), zero_edges=(1, 5), colors=2, connected=False)
_SPEC_SPLICE = RandomInstanceSpec(vertices=(1, 4), regular_edges=(0, 4), zero_edges=(0, 2), connected=False)


def _splice_inputs(i):
    rng = random.Random(derived_seed(12, i))
    return [random_graph(rng, _SPEC_SPLICE) for _ in range(rng.randint(1, 3))]


def test_contract_triangle_gives_parallel_pair(triangle):
    g = contract(triangle, "e1")
    assert len(g.vertex_set) == 2
    assert sorted(e.id for e in g.edges) == ["e2", "e3"]
    e2, e3 = g.edge("e2"), g.edge("e3")
    assert e2.endpoints() == e3.endpoints()


def test_contract_bridge_leaves_isolated_vertex():
    g = G("edge b u v color=mu")
    got = contract(g, "b")
    assert got.edges == ()
    assert tuple(sorted(got.vertex_set)) == ("u",)


def test_contract_parallel_makes_loop():
    g = G("edge p1 u v color=mu\nedge p2 u v color=mu")
    got = contract(g, "p1")
    assert len(got.vertex_set) == 1
    assert got.edge("p2").is_loop


def test_contract_refuses_loop():
    g = G("edge l v v color=mu")
    with pytest.raises(ContractLoop):
        contract(g, "l")


def test_delete_keeps_vertices(triangle):
    got = delete(triangle, "e2")
    assert tuple(sorted(got.vertex_set)) == ("a", "b", "c")
    assert sorted(got.edge_ids()) == ["e1", "e3"]


def test_delete_loop_leaves_isolated_vertex():
    g = G("edge l v v color=mu")
    got = delete(g, "l")
    assert tuple(sorted(got.vertex_set)) == ("v",)
    assert got.edges == ()


def test_unknown_edge():
    g = G("edge a 1 2 color=mu")
    with pytest.raises(UnknownEdge):
        delete(g, "nope")
    with pytest.raises(UnknownEdge):
        contract(g, "nope")
    with pytest.raises(UnknownEdge):
        is_bridge(g, "nope")


def test_bridge_and_loop_predicates(triangle):
    single = G("edge b u v color=mu")
    assert is_bridge(single, "b")
    assert all(not is_bridge(triangle, e) for e in triangle.edge_ids())
    par = G("edge p1 u v color=mu\nedge p2 u v color=mu")
    assert not is_bridge(par, "p1") and not is_bridge(par, "p2")
    assert G("edge l v v color=mu").edge("l").is_loop


def test_blocks_small_cases(triangle):
    path = G("edge e1 a b color=mu\nedge e2 b c color=mu")
    assert [[e.id for e in b] for b in blocks(path)] == [["e1"], ["e2"]]
    assert [[e.id for e in b] for b in blocks(triangle)] == [["e1", "e2", "e3"]]


def test_blocks_triangle_with_pendant_matches_bruteforce():
    g = G(
        """
        edge e1 a b color=mu
        edge e2 b c color=mu
        edge e3 c a color=mu
        edge p c d color=mu
        """
    )
    got = sorted((frozenset(e.id for e in b) for b in blocks(g)), key=sorted)
    want = sorted(blocks_bruteforce(g), key=sorted)
    assert got == want
    assert len(got) == 2


def test_blocks_partition_edges_randomized():
    for i in range(40):
        rng = random.Random(derived_seed(11, i))
        g = random_graph(rng, _SPEC_UP_TO_6)
        bs = blocks(g)
        ids = sorted(e.id for b in bs for e in b)
        assert ids == sorted(g.edge_ids())
        assert all(list(b) == sorted(b, key=lambda e: e.id) for b in bs)
        assert [b[0].id for b in bs] == sorted(b[0].id for b in bs)
        want = sorted(blocks_bruteforce(g), key=sorted)
        got = sorted((frozenset(e.id for e in b) for b in bs), key=sorted)
        assert got == want


def test_pivot_key_of_edgeless_graph_is_empty():
    assert pivot_class_key(single_vertex()).codes == ()
    assert pivot_class_key(single_vertex()).render() == "z{}"


def test_pivot_keys_match_per_block_graphs():
    # the codes from edge tuples against a graph built for every block, on
    # graphs with loops, isolated vertices and no edges at all
    spec = RandomInstanceSpec(vertices=(1, 6), regular_edges=(0, 5), zero_edges=(0, 4), connected=False)
    seen = {"no edges": 0, "loops": 0, "isolated": 0}
    for i in range(1200):
        g = random_graph(random.Random(derived_seed(72, i)), spec)
        if i % 3 == 0:
            g = ColoredMultigraph(g.edges, extra_vertices=g.vertex_set | {"iso"})
        used = {x for e in g.edges for x in (e.u, e.v)}
        seen["no edges"] += not g.edges
        seen["loops"] += any(e.is_loop for e in g.edges)
        seen["isolated"] += bool(g.edges) and used != g.vertex_set
        got, want = pivot_class_key(g), reference_pivot_class_key(g)
        assert got.codes == want.codes, i
        assert format_graph(got.representative) == format_graph(want.representative), i
        assert got.representative.vertex_set == want.representative.vertex_set, i
    assert min(seen.values()) >= 30, seen


def test_pivot_key_distinguishes_bridge_from_loop():
    bridge = G("edge h 1 2 color=z0 zero")
    loop = G("edge h 1 1 color=z0 zero")
    assert pivot_class_key(bridge) != pivot_class_key(loop)
    assert pivot_class_key(bridge).codes == ("bridge(z0)",)
    assert pivot_class_key(loop).codes == ("loop(z0)",)


def test_pivot_key_invariant_under_relabeling():
    g1 = G("edge e1 a b color=mu\nedge e2 b c color=mu\nedge e3 c a color=mu")
    g2 = G("edge f1 x y color=mu\nedge f2 y z color=mu\nedge f3 z x color=mu")
    assert pivot_class_key(g1) == pivot_class_key(g2)


def test_bowtie_respliced_at_other_vertices_same_key():
    bowtie = G(
        """
        edge a1 u p color=z0 zero
        edge a2 p q color=z0 zero
        edge a3 q u color=z0 zero
        edge b1 u r color=z0 zero
        edge b2 r s color=z0 zero
        edge b3 s u color=z0 zero
        """
    )
    before = pivot_class_key(bowtie)
    pivoted = vertex_pivot(bowtie, "u", ("p", "s"))
    assert pivot_class_key(pivoted) == before


def test_vertex_pivot_requires_cutpoint(triangle):
    with pytest.raises(NotACutpoint):
        vertex_pivot(triangle, "a", ("b", "c"))


def test_vertex_pivot_path_both_choices():
    path = G("edge e1 a b color=mu\nedge e2 b c color=mu")
    key = pivot_class_key(path)
    for reattach in (("a", "c"), ("c", "a")):
        got = vertex_pivot(path, "b", reattach)
        assert pivot_class_key(got) == key
        assert colored_isomorphic(got, path)


def test_splice_of_vertices_is_vertex():
    got = splice_all([single_vertex(), single_vertex("1")])
    assert pivot_class_key(got).codes == ()


def test_splice_two_zero_bridges():
    b = G("edge h 1 2 color=z0 zero")
    got = splice_all([b, b])
    assert pivot_class_key(got).codes == ("bridge(z0)", "bridge(z0)")


def test_splice_triangle_and_bridge(triangle):
    bridge = G("edge h 1 2 color=z0 zero")
    key = pivot_class_key(splice_all([triangle, bridge]))
    assert key.codes == tuple(sorted(pivot_class_key(triangle).codes + ("bridge(z0)",)))


def test_splice_key_is_union_of_input_keys():
    for i in range(25):
        gs = _splice_inputs(i)
        got = pivot_class_key(splice_all(gs))
        want = tuple(sorted(sum((pivot_class_key(g).codes for g in gs), ())))
        assert got.codes == want


def test_two_sum_bridge_with_triangle_patch():
    base = G("edge f u v color=lam")
    patch = G(
        """
        edge ep 1 2 color=nu pointed
        edge s 2 3 color=mu
        edge t 3 1 color=mu
        """
    )
    got = two_sum(base, "f", patch, "ep")
    assert len(got.edges) == 2
    assert {"u", "v"} <= got.vertex_set
    # a path of two edges joining u to v
    assert pivot_class_key(got).codes == ("bridge(mu)", "bridge(mu)")


def test_two_sum_with_parallel_patch_gives_single_zero_edge():
    base = G("edge f u v color=lam")
    patch = G("edge ep 1 2 color=nu pointed\nedge h 1 2 color=z0 zero")
    got = two_sum(base, "f", patch, "ep")
    assert [e.color for e in got.edges] == ["z0"]
    assert sorted(got.edge("f.h").endpoints()) == ["u", "v"]


def test_two_sum_rejects_loops():
    base = G("edge f u u color=lam")
    patch = G("edge ep 1 2 color=nu pointed\nedge h 1 2 color=z0 zero")
    with pytest.raises(LoopTwoSum):
        two_sum(base, "f", patch, "ep")
    with pytest.raises(LoopTwoSum):
        two_sum(patch, "h", base, "f")


def test_two_sum_block_spot_check():
    # when the base edge is itself a bridge block, its block is replaced by
    # the patch's blocks after removing the identified edge
    base = G("edge e1 a b color=mu\nedge e2 b c color=mu")
    patch = G(
        """
        edge ep 1 2 color=nu pointed
        edge s 2 3 color=mu
        edge t 3 1 color=mu
        """
    )
    got = two_sum(base, "e2", patch, "ep")
    base_codes = list(pivot_class_key(base).codes)
    base_codes.remove("bridge(mu)")
    patch_minus = delete(patch, "ep")
    want = tuple(sorted(base_codes + list(pivot_class_key(patch_minus).codes)))
    assert pivot_class_key(got).codes == want


def test_recolor_subset():
    g = G("edge e1 a b color=lam\nedge e2 b c color=lam\nedge h c a color=z0 zero")
    got = recolor_subset(g, {"e1", "e2"}, "lambda0")
    assert got.edge("e1").is_zero and got.edge("e1").color == "lambda0"
    assert got.edge("h") == g.edge("h")
    assert recolor_subset(g, set(), "lambda0") == g


def test_recolor_rejects_zero_edges_and_mixed_colors():
    g = G("edge e1 a b color=lam\nedge e2 b c color=mu\nedge h c a color=z0 zero")
    with pytest.raises(NotRegular):
        recolor_subset(g, {"h"}, "lambda0")
    with pytest.raises(MixedColors):
        recolor_subset(g, {"e1", "e2"}, "lambda0")


def test_pointed_edge_is_the_edge_of_color_nu():
    assert EdgeRecord("e", "a", "b", "nu").is_pointed
    for color, zero in (("mu", False), ("z0", True), ("lambda0", True)):
        assert not EdgeRecord("e", "a", "b", color, zero).is_pointed
    with pytest.raises(ColorClash):
        EdgeRecord("e", "a", "b", "nu", True)
    g = G("edge e1 a b color=lam\nedge e2 b c color=lam")
    with pytest.raises(ColorClash):
        recolor_subset(g, {"e1"}, "nu")
    with pytest.raises(EngineError):
        ColoredMultigraph([EdgeRecord("p", "a", "b", "nu"), EdgeRecord("q", "b", "c", "nu")])
    g = ColoredMultigraph([EdgeRecord("p", "a", "b", "nu"), EdgeRecord("m", "b", "a", "mu")])
    assert g.pointed_edge() == g.edge("p")
    assert g.zero_ids() == ("p",) and g.regular_ids() == ("m",)
    text = format_graph(g)
    assert "edge p a b color=nu pointed\n" in text
    assert G(text) == g


def test_color_discipline_enforced():
    with pytest.raises(ColorClash):
        ColoredMultigraph(
            [
                EdgeRecord("a", "1", "2", "mu", False),
                EdgeRecord("b", "1", "2", "mu", True),
            ]
        )


def test_color_token_is_matched_whole():
    assert EdgeRecord("e1", "a", "b", "mu_1").color == "mu_1"
    for bad in ("mu\n", "m u"):
        with pytest.raises(EngineError):
            EdgeRecord("e1", "a", "b", bad)


def test_edge_ids_and_vertex_names_are_matched_whole():
    assert EdgeRecord("f/e1", "e1.a", "b~1", "mu").id == "f/e1"
    for bad in ("a b", "a\n", "", "a#b", "a=b"):
        for args in ((bad, "a", "c"), ("e1", bad, "c"), ("e1", "a", bad)):
            with pytest.raises(EngineError):
                EdgeRecord(*args, "mu")


def test_contract_delete_counts_randomized():
    for i in range(30):
        rng = random.Random(derived_seed(13, i))
        g = random_graph(rng, _SPEC_UP_TO_6)
        eid = rng.choice(sorted(g.edge_ids()))
        if not g.edge(eid).is_loop:
            got = contract(g, eid)
            assert len(got.vertex_set) == len(g.vertex_set) - 1
            assert len(got.edges) == len(g.edges) - 1
        got = delete(g, eid)
        assert len(got.vertex_set) == len(g.vertex_set)
        assert len(got.edges) == len(g.edges) - 1


def test_pivot_key_agrees_with_block_multiset_comparator():
    pool = []
    for i in range(26):
        rng = random.Random(derived_seed(14, i))
        pool.append(
            random_graph(rng, _SPEC_UP_TO_5)
        )
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            same_key = pivot_class_key(pool[i]) == pivot_class_key(pool[j])
            assert same_key == block_multisets_equal(pool[i], pool[j])


def test_canonical_code_matches_bruteforce_isomorphism():
    pool = []
    for i in range(20):
        rng = random.Random(derived_seed(15, i))
        pool.append(
            random_graph(rng, _SPEC_UP_TO_4)
        )
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            same = canonical_code(pool[i]) == canonical_code(pool[j]) and len(pool[i].vertex_set) == len(pool[j].vertex_set)
            assert same == colored_isomorphic(pool[i], pool[j]), (i, j)


_REFERENCE_COLORS = {"z0": True, "z1": True, "mu": False}


def _recolored(g, colors):
    return ColoredMultigraph(
        [EdgeRecord(e.id, e.u, e.v, c, _REFERENCE_COLORS[c]) for e, c in zip(g.edges, colors)],
        extra_vertices=g.vertex_set,
    )


def test_canonical_code_matches_reference_beam_on_small_structures():
    structures = list(connected_multigraph_structures(5))
    # every coloring of one labeling per class ...
    for g in iso_classes(structures):
        for colors in itertools.product(_REFERENCE_COLORS, repeat=len(g.edges)):
            h = _recolored(g, colors)
            assert canonical_code(h) == reference_canonical_code(h)
    # ... and one seeded coloring of every labeling
    rng = random.Random(2014)
    for g in structures:
        h = _recolored(g, [rng.choice(sorted(_REFERENCE_COLORS)) for _ in g.edges])
        assert canonical_code(h) == reference_canonical_code(h)


def _networkx_isomorphic(g, h):
    """Colored multigraph isomorphism by networkx: parallel edges and loops match as colour multisets."""
    nx = pytest.importorskip("networkx")

    def simple(g):
        out = nx.Graph()
        out.add_nodes_from(g.vertex_set, loops=())
        for e in g.edges:
            if e.is_loop:
                out.nodes[e.u]["loops"] = tuple(sorted(out.nodes[e.u]["loops"] + (e.color,)))
            else:
                old = out.get_edge_data(e.u, e.v, {"colors": ()})["colors"]
                out.add_edge(e.u, e.v, colors=tuple(sorted(old + (e.color,))))
        return out

    return nx.is_isomorphic(simple(g), simple(h), node_match=lambda a, b: a["loops"] == b["loops"],
                            edge_match=lambda a, b: a["colors"] == b["colors"])


def _colour_profile(g):
    """An isomorphism invariant: per vertex, its loop colours and its other incident colours."""
    per = {v: ([], []) for v in g.vertex_set}
    for e in g.edges:
        if e.is_loop:
            per[e.u][0].append(e.color)
        else:
            per[e.u][1].append(e.color)
            per[e.v][1].append(e.color)
    return tuple(sorted((tuple(sorted(a)), tuple(sorted(b))) for a, b in per.values()))


def test_canonical_code_agrees_with_networkx_isomorphism():
    # every colouring of the classes of up to 4 edges, and one seeded colouring of every labeling
    structures = list(connected_multigraph_structures(5))
    graphs = [_recolored(g, colors) for g in iso_classes(structures) if len(g.edges) <= 4
              for colors in itertools.product(_REFERENCE_COLORS, repeat=len(g.edges))]
    rng = random.Random(2014)
    graphs += [_recolored(g, [rng.choice(sorted(_REFERENCE_COLORS)) for _ in g.edges]) for g in structures]
    classes: dict = {}
    for g in graphs:
        classes.setdefault(canonical_code(g), []).append(g)
    for head, *rest in classes.values():
        assert all(_networkx_isomorphic(head, g) for g in rest)
    # distinct codes: heads that no coarser invariant tells apart must be non-isomorphic
    by_profile: dict = {}
    for head, *_ in classes.values():
        by_profile.setdefault(_colour_profile(head), []).append(head)
    for heads in by_profile.values():
        assert not any(_networkx_isomorphic(a, b) for a, b in itertools.combinations(heads, 2))
    # seeded random graphs against a relabelled copy, a copy with one edge end moved, and one more vertex
    for i in range(300):
        rng = random.Random(derived_seed(41, i))
        g = random_graph(rng, _SPEC_UP_TO_7)
        names = dict(zip(sorted(g.vertex_set), rng.sample([f"w{k}" for k in range(len(g.vertex_set))], len(g.vertex_set))))
        ids = rng.sample([f"f{k}" for k in range(len(g.edges))], len(g.edges))
        relabelled = ColoredMultigraph(
            [EdgeRecord(f, *rng.sample([names[e.u], names[e.v]], 2), e.color, e.is_zero) for f, e in zip(ids, g.edges)],
            extra_vertices=names.values(),
        )
        moved = rng.randrange(len(g.edges))
        target = rng.choice(sorted(g.vertex_set))
        shifted = ColoredMultigraph(
            [EdgeRecord(e.id, e.u, target if k == moved else e.v, e.color, e.is_zero) for k, e in enumerate(g.edges)],
            extra_vertices=g.vertex_set,
        )
        padded = ColoredMultigraph(g.edges, extra_vertices=g.vertex_set | {"pad"})
        for h in (relabelled, shifted, padded):
            assert (canonical_code(g) == canonical_code(h)) == _networkx_isomorphic(g, h), i


def test_canonical_code_matches_reference_beam_on_random_graphs():
    for i in range(1500):
        g = random_graph(random.Random(derived_seed(23, i)), _SPEC_UP_TO_7)
        assert canonical_code(g) == reference_canonical_code(g), i


def _zero_cycle(n):
    return ColoredMultigraph([EdgeRecord(f"e{i}", f"v{i}", f"v{(i + 1) % n}", "z0", True) for i in range(n)])


def _zero_complete(n):
    return ColoredMultigraph(
        [EdgeRecord(f"e{i}.{j}", f"v{i}", f"v{j}", "z0", True) for i in range(n) for j in range(i + 1, n)]
    )


def test_canonical_code_matches_reference_beam_on_symmetric_zero_blocks():
    for g in (_zero_cycle(10), _zero_cycle(11), _zero_complete(6), _zero_complete(7)):
        assert canonical_code(g) == reference_canonical_code(g)


def test_pivot_keys_of_large_symmetric_zero_blocks_do_not_hang():
    # the reference beam needs minutes for C20 and seconds for K9; C50 took
    # 35 s while the clique search was bounded by the candidate count alone
    for g in (_zero_cycle(20), _zero_complete(10), _zero_cycle(50)):
        t0 = time.perf_counter()
        key = pivot_class_key(g)
        assert time.perf_counter() - t0 < 1.0
        assert len(key.codes) == 1


def _random_masks(rng):
    n = rng.randint(1, 14)
    density = rng.random()
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    cand = sum(1 << v for v in range(n) if rng.random() < 0.9)
    return masks, cand


def test_maximum_cliques_match_unbounded_reference():
    # the same cliques in the same order: the colouring bound only cuts
    # branches that cannot reach the best size found so far
    for i in range(3000):
        masks, cand = _random_masks(random.Random(derived_seed(61, i)))
        assert _maximum_cliques(masks, cand) == reference_maximum_cliques(masks, cand), i


def _bowtie():
    return G(
        """
        edge a1 u p color=mu
        edge a2 p q color=mu
        edge a3 q u color=mu
        edge b1 u r color=mu
        edge b2 r s color=mu
        edge b3 s u color=mu
        """
    )


def test_cutpoints_of_bowtie():
    assert cutpoints(_bowtie()) == ("u",)


def test_connectivity_matches_bfs_reference():
    graphs = [_zero_cycle(3), _zero_cycle(8), _bowtie()]
    # the random corpora of the tests above, drawn the same way
    for seed, count, spec in ((11, 40, _SPEC_UP_TO_6), (13, 30, _SPEC_UP_TO_6), (14, 26, _SPEC_UP_TO_5),
                              (15, 20, _SPEC_UP_TO_4), (23, 1500, _SPEC_UP_TO_7)):
        graphs += [random_graph(random.Random(derived_seed(seed, i)), spec) for i in range(count)]
    graphs += [g for i in range(25) for g in _splice_inputs(i)]
    for g in graphs:
        want = reference_components(g)
        assert components(g) == want
        assert is_connected(g) == (len(want) <= 1)
        assert cutpoints(g) == reference_cutpoints(g)
        for eid in g.edge_ids():
            assert is_bridge(g, eid) == reference_is_bridge(g, eid), eid
