"""Adversarial and cross-route checks beyond the per-module suites."""

import random

from conftest import G
from oracles import activities, canonical_code, colored_isomorphic, terminal_graph, vertex_pivot, weight_polynomial
from reltutte import (
    ColoredMultigraph,
    EdgeRecord,
    RelPolynomial,
    pivot_class_key,
    universal_tutte_statesum,
    z_symbol,
)
from reltutte.graph import blocks, block_code
from reltutte.randgen import (
    RandomInstanceSpec,
    derived_seed,
    random_graph,
    random_pointed_graph,
)
from reltutte.tutte import canonical_labeling, enumerate_contracting_sets


def _cycle(colors, prefix="e"):
    n = len(colors)
    edges = [
        EdgeRecord(f"{prefix}{i}", str(i), str((i + 1) % n), c, True)
        for i, c in enumerate(colors)
    ]
    return ColoredMultigraph(edges)


def test_canonical_code_separates_colored_cycles():
    # same color multiset, different cyclic arrangement
    aabb = _cycle(["z0", "z0", "z1", "z1"])
    abab = _cycle(["z0", "z1", "z0", "z1"])
    assert not colored_isomorphic(aabb, abab)
    assert canonical_code(aabb) != canonical_code(abab)
    assert pivot_class_key(aabb) != pivot_class_key(abab)
    # rotations and reflections collapse
    rotated = _cycle(["z1", "z0", "z0", "z1"])
    assert canonical_code(rotated) == canonical_code(aabb)


def test_canonical_code_on_symmetric_cycles():
    ten = _cycle(["z0"] * 10)
    relabeled = ColoredMultigraph(
        [EdgeRecord(f"f{i}", f"v{(3 * i) % 10}", f"v{(3 * (i + 1)) % 10}", "z0", True) for i in range(10)]
    )
    assert canonical_code(ten) == canonical_code(relabeled)
    assert block_code(blocks(ten)[0]) == block_code(blocks(relabeled)[0])


def test_canonical_code_loop_parallel_mixtures():
    # moving the loop to the other endpoint of the 2-cycle is a vertex pivot
    # (split at the cutpoint, re-splice at the other vertex): same key
    a = G("edge p1 1 2 color=z0 zero\nedge p2 1 2 color=z0 zero\nedge l 1 1 color=z1 zero")
    b = G("edge p1 8 9 color=z0 zero\nedge p2 9 8 color=z0 zero\nedge l 9 9 color=z1 zero")
    assert pivot_class_key(a) == pivot_class_key(b)
    # but the whole-graph canonical codes still see non-isomorphic graphs as
    # different when the loop colors disagree
    c = G("edge p1 1 2 color=z0 zero\nedge p2 1 2 color=z0 zero\nedge l 1 1 color=z0 zero")
    assert pivot_class_key(c) != pivot_class_key(a)


def test_vertex_pivot_reattach_at_cutpoint_copy():
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
    key = pivot_class_key(bowtie)
    # b equal to the cutpoint: identify the detached side with the remaining copy
    got = vertex_pivot(bowtie, "u", ("p", "u"))
    assert pivot_class_key(got) == key


def test_statesum_accepts_disconnected_graphs():
    g = G(
        """
        edge m 1 2 color=mu
        edge h 1 2 color=z0 zero
        edge k 3 4 color=z1 zero
        """
    )
    p = universal_tutte_statesum(g)
    keys = {zs[0].codes for (_, zs), _ in p.terms()}
    assert keys == {("bridge(z1)", "loop(z0)"), ("bridge(z0)", "bridge(z1)")}


def test_statesum_assembled_from_activities_route():
    # third route: sum of weight(activities) * z(terminal) over enumerated sets
    for i in range(25):
        rng = random.Random(derived_seed(51, i))
        g = random_graph(
            rng,
            RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 6), zero_edges=(0, 2), connected=False),
        )
        lab = canonical_labeling(g)
        total = RelPolynomial.zero()
        for cs in enumerate_contracting_sets(g, lab):
            w = weight_polynomial(activities(g, lab, cs), g)
            total = total + w * z_symbol(pivot_class_key(terminal_graph(g, lab, cs)))
        assert total == universal_tutte_statesum(g, lab)


def test_pointed_status_matches_direct_inspection():
    from reltutte.graph import is_bridge
    from reltutte.pointed import universal_with_pointed_zero

    for i in range(20):
        rng = random.Random(derived_seed(52, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        u = universal_with_pointed_zero(pg)
        for key in u.zkeys():
            rep = key.representative
            nu = [e for e in rep.edges if e.is_pointed]
            assert len(nu) == 1
            e = nu[0]
            want = "loop" if e.is_loop else "bridge" if is_bridge(rep, e.id) else "inner"
            assert key.pointed_status() == want


def test_library_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    import ast
    import pathlib

    import reltutte

    src = pathlib.Path(reltutte.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) > 5
    assert found == []


def test_library_reads_terms_unsorted():
    # RelPolynomial.terms() renders and sorts every term; outside poly.py the maps read _terms
    import ast
    import pathlib

    import reltutte

    src = pathlib.Path(reltutte.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "terms"
    ]
    assert len(list(src.glob("*.py"))) > 5
    assert found == []


def test_library_catches_no_blanket_exceptions():
    # a handler for every exception would also swallow InvariantBreach and plain bugs
    import ast
    import pathlib

    import reltutte

    def blanket(handler):
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(t is None or isinstance(t, ast.Name) and t.id in ("Exception", "BaseException") for t in caught)

    src = pathlib.Path(reltutte.__file__).parent
    handlers = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler)
    ]
    assert len(handlers) > 5
    assert [f"{name}:{node.lineno}" for name, node in handlers if blanket(node)] == []


def test_traced_layers_name_engine_functions():
    # the benchmark tracer skips a function the engine no longer has, and its
    # layer's metrics then read 0; a renamed or removed function fails here
    import importlib
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [target for layer in tracer.LAYERS.values() for target in layer]
    assert len(targets) > 20
    missing = [
        f"{mod}.{attr}"
        for mod, attr in targets
        if not callable(getattr(importlib.import_module(f"reltutte.{mod}"), attr, None))
    ]
    assert missing == []
