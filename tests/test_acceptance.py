"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from conftest import G
from oracles import (
    base_graph_family,
    blocks_bruteforce,
    canonical_code,
    classical_tutte,
    colored_isomorphic,
    connected_multigraph_structures,
    contracting_sets_by_type,
    cutpoints,
    iso_classes,
    other_end,
    patch_graph_family,
    spanning_tree_count,
    specialize_psi,
    vertex_pivot,
)
from reltutte import (
    ColoredMultigraph,
    EdgeRecord,
    RelPolynomial,
    TensorInstance,
    equal_mod_ideal,
    pivot_class_key,
    pointed_polys,
    universal_tutte_statesum,
    variable,
    verify_tensor_formula,
    z_symbol,
)
from reltutte.randgen import (
    RandomInstanceSpec,
    derived_seed,
    random_graph,
    random_graph_with_zero_edges,
    random_pointed_graph,
    random_proper_labeling,
    random_tensor_instance,
)
from reltutte.tensor import compose_contracting_set, induced_partition, tensor_product
from reltutte.tutte import ContractingSet, enumerate_contracting_sets


def _criterion(number: int, description: str, budget_s: float, started: float, ok: bool):
    elapsed = time.time() - started
    line = f"[{'PASS' if ok and elapsed < budget_s else 'FAIL'}] criterion {number}: {description} ({elapsed:.1f}s / budget {budget_s:.0f}s)"
    print(line)
    assert ok, f"criterion {number} failed"
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.1f}s"


BRIDGE_Z = pivot_class_key(G("edge h 1 2 color=z0 zero"))
LOOP_Z = pivot_class_key(G("edge h 1 1 color=z0 zero"))


def test_criterion_1_pointed_golden_values(figure_left, figure_right):
    t0 = time.time()
    pp_left = pointed_polys(figure_left)
    x_m, cx_m = variable("x", "mu"), variable("X", "mu")
    ok = pp_left.tminus == (cx_m - x_m) * z_symbol(BRIDGE_Z)
    pp_right = pointed_polys(figure_right)
    y_m, cy_m = variable("y", "mu"), variable("Y", "mu")
    ok = ok and pp_right.tslash == (cy_m - y_m) * z_symbol(LOOP_Z)
    _criterion(1, "corrected deletion/contraction golden values", 1.0, t0, ok)


def test_criterion_2_trivial_patch(trivial_patch):
    t0 = time.time()
    pp = pointed_polys(trivial_patch)
    ok = (
        pp.t0 == z_symbol(pivot_class_key(trivial_patch.graph))
        and pp.tc == RelPolynomial.zero()
        and pp.tl == RelPolynomial.zero()
        and pp.tslash == RelPolynomial.zero()
        and pp.tminus == RelPolynomial.zero()
    )
    for i in range(20):
        rng = random.Random(derived_seed(1002, i))
        base = random_tensor_instance(rng, g1_regular=4, g1_lambda=(1, 3), g1_zero=(0, 2)).g1
        assert len(base.edges) <= 6
        ti = TensorInstance(g1=base, g2=trivial_patch, lam="lam")
        report = verify_tensor_formula(ti, trials=32, seed=derived_seed(1002, i))
        ok = ok and report.equal
    _criterion(2, "two-edge patch leaves only the type-zero polynomial", 30.0, t0, ok)


def test_criterion_3_no_patch_zero_edges():
    t0 = time.time()
    ok = True
    for i in range(20):
        rng = random.Random(derived_seed(1003, i))
        ti = random_tensor_instance(rng, g2_zero=(0, 0))
        ok = ok and pointed_polys(ti.g2).t0 == RelPolynomial.zero()
        report = verify_tensor_formula(ti, trials=32, seed=derived_seed(1003, i))
        ok = ok and report.equal
    _criterion(3, "patches without zero edges reduce to the plain substitution", 60.0, t0, ok)


def _to_classical(g):
    p = specialize_psi(universal_tutte_statesum(g), lambda k: RelPolynomial.const(1))
    out = {}
    for (vars_, _zs), coeff in p.terms():
        exps = dict(vars_)
        key = (exps.pop(("X", "c"), 0), exps.pop(("Y", "c"), 0))
        exps.pop(("x", "c"), None)
        exps.pop(("y", "c"), None)
        assert not exps
        out[key] = out.get(key, 0) + coeff
        if out[key] == 0:
            del out[key]
    return out


def test_criterion_4_classical_tutte_oracle():
    t0 = time.time()
    ok = True
    seen = set()
    for g in connected_multigraph_structures(5):
        code = canonical_code(g)
        if code in seen:
            continue
        seen.add(code)
        ok = ok and _to_classical(g) == classical_tutte(g)
    for i in range(200):
        rng = random.Random(derived_seed(1004, i))
        g = random_graph(
            rng,
            RandomInstanceSpec(vertices=(2, 6), regular_edges=(1, 8), zero_edges=(0, 0), colors=1),
        )
        g = ColoredMultigraph(
            [EdgeRecord(e.id, e.u, e.v, "c", False) for e in g.edges],
            extra_vertices=g.vertex_set,
        )
        ok = ok and _to_classical(g) == classical_tutte(g)
    _criterion(4, f"classical Tutte specialization ({len(seen)} exhaustive + 200 random)", 120.0, t0, ok)


def test_classical_specialization_matches_networkx():
    # past the exhaustive bounds of criterion 4: 10-16 edges, loops and parallel edges included
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for i in range(12):
        rng = random.Random(derived_seed(1011, i))
        g = random_graph(rng, RandomInstanceSpec(vertices=(4, 8), regular_edges=(10, 16), zero_edges=(0, 0), colors=1))
        g = ColoredMultigraph(
            [EdgeRecord(e.id, e.u, e.v, "c", False) for e in g.edges],
            extra_vertices=g.vertex_set,
        )
        m = nx.MultiGraph()
        m.add_nodes_from(g.vertex_set)
        m.add_edges_from((e.u, e.v) for e in g.edges)
        want = {exps: int(c) for exps, c in sympy.Poly(nx.tutte_polynomial(m), x, y).as_dict().items()}
        assert _to_classical(g) == want, i


def test_criterion_5_labeling_independence():
    t0 = time.time()
    ok = True
    for i in range(100):
        rng = random.Random(derived_seed(1005, i))
        g = random_graph_with_zero_edges(rng, max_edges=8)
        p1 = universal_tutte_statesum(g, random_proper_labeling(rng, g))
        p2 = universal_tutte_statesum(g, random_proper_labeling(rng, g))
        ok = ok and equal_mod_ideal(p1, p2, trials=32, seed=derived_seed(1005, i))
    _criterion(5, "labeling independence on 100 random graphs", 120.0, t0, ok)


def test_criterion_6_exchange_identities():
    t0 = time.time()
    ok = True
    for i in range(100):
        rng = random.Random(derived_seed(1006, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        pp = pointed_polys(pg)
        seed = derived_seed(1006, i)
        for mu in pg.graph.regular_colors():
            x_m, y_m = variable("x", mu), variable("y", mu)
            cx_m, cy_m = variable("X", mu), variable("Y", mu)
            ok = ok and equal_mod_ideal(
                x_m * (pp.tslash - pp.tc), (cy_m - y_m) * pp.tl, trials=32, seed=seed
            )
            ok = ok and equal_mod_ideal(
                y_m * (pp.tminus - pp.tl), (cx_m - x_m) * pp.tc, trials=32, seed=seed
            )
    _criterion(6, "pointed exchange identities on 100 random pointed graphs", 180.0, t0, ok)


@pytest.mark.heavy
def test_criterion_7_structural_bijection():
    t0 = time.time()
    structures = iso_classes(connected_multigraph_structures(4))
    bases = base_graph_family(structures)
    patches = patch_graph_family(structures)
    # per-patch bucket sizes by type, shared across all pairings
    bucket_counts = {}
    for j, pg in enumerate(patches):
        buckets = contracting_sets_by_type(pg)
        bucket_counts[j] = {t: len(v) for t, v in buckets.items()}
    ok = True
    pairs = 0
    for g1 in bases:
        lam_ids = tuple(e.id for e in g1.edges if e.color == "lam")
        # requirement profiles (a,b,c): how many replaced edges land in the
        # contract / delete / demoted parts, over all (S, base set) choices
        profiles: dict = {}
        for mask in range(1 << len(lam_ids)):
            s = frozenset(lam_ids[i] for i in range(len(lam_ids)) if mask >> i & 1)
            from reltutte.graph import RECOLOR_ZERO, recolor_subset

            g1s = recolor_subset(g1, s, RECOLOR_ZERO)
            for cs1 in enumerate_contracting_sets(g1s):
                a = len(set(lam_ids) & cs1.contracting)
                b = len(set(lam_ids) & cs1.deleting)
                c = len(s)
                profiles[(a, b, c)] = profiles.get((a, b, c), 0) + 1
        for j, pg in enumerate(patches):
            ti = TensorInstance(g1=g1, g2=pg, lam="lam")
            prod = tensor_product(ti)
            counts = bucket_counts[j]
            lhs_count = 0
            for cs in enumerate_contracting_sets(prod):
                part = induced_partition(ti, cs)
                per_copy = {
                    f: ContractingSet(cs.contracting & ti.copy_edge_ids(f), cs.deleting & ti.copy_edge_ids(f))
                    for f in lam_ids
                }
                rebuilt = compose_contracting_set(ti, (part.c1, part.d1, part.demoted), per_copy)
                ok = ok and rebuilt == cs
                lhs_count += 1
            rhs_count = sum(
                mult * counts["C"] ** a * counts["D"] ** b * counts["zero"] ** c
                for (a, b, c), mult in profiles.items()
            )
            ok = ok and lhs_count == rhs_count
            pairs += 1
        if not ok:
            break
    _criterion(7, f"contracting-set bijection on {pairs} exhaustive instances", 120.0, t0, ok)


def test_criterion_8_substitution_formula_headline():
    t0 = time.time()
    ok = True
    for i in range(50):
        rng = random.Random(derived_seed(1008, i))
        ti = random_tensor_instance(rng)
        report = verify_tensor_formula(ti, trials=32, seed=derived_seed(1008, i))
        ok = ok and report.equal
    _criterion(8, "substitution formula on 50 random instances", 600.0, t0, ok)


@pytest.mark.heavy
def test_criterion_9_contracting_sets_match_matrix_tree():
    t0 = time.time()
    ok = True
    seen = set()
    n_checked = 0
    for g in connected_multigraph_structures(6):
        code = canonical_code(g)
        if code in seen:
            continue
        seen.add(code)
        n_checked += 1
        count = sum(1 for _ in enumerate_contracting_sets(g))
        ok = ok and count == spanning_tree_count(g)
    _criterion(9, f"contracting sets equal spanning trees on {n_checked} graphs", 30.0, t0, ok)


def test_criterion_10_pivot_key_invariance():
    t0 = time.time()
    ok = True
    pivots_done = 0
    attempt = 0
    while pivots_done < 1000 and attempt < 20000:
        attempt += 1
        rng = random.Random(derived_seed(1010, attempt))
        g = random_graph(
            rng,
            RandomInstanceSpec(vertices=(3, 7), regular_edges=(2, 9), zero_edges=(0, 1), colors=2),
        )
        if len(g.edges) > 10:
            continue
        cps = cutpoints(g)
        if not cps:
            continue
        u = rng.choice(sorted(cps))
        rest = ColoredMultigraph(
            [e for e in g.edges if u not in (e.u, e.v)], extra_vertices=g.vertex_set - {u}
        )
        from reltutte.graph import components

        sides = [
            c
            for c in components(rest)
            if any(other_end(e, u) in c for e in g.edges if u in (e.u, e.v) and not e.is_loop)
        ]
        if len(sides) < 2:
            continue
        a = rng.choice(sorted(sides[0]))
        b = rng.choice(sorted(set(g.vertex_set) - set(sides[0])))
        ok = ok and pivot_class_key(vertex_pivot(g, u, (a, b))) == pivot_class_key(g)
        pivots_done += 1
    ok = ok and pivots_done == 1000

    # canonical keys agree with the brute-force block-multiset comparator
    pool = []
    for g in iso_classes(connected_multigraph_structures(4)):
        pool.append(g)
        pool.append(
            ColoredMultigraph(
                [EdgeRecord(e.id, e.u, e.v, "z0", True) for e in g.edges],
                extra_vertices=g.vertex_set,
            )
        )
    for i in range(16):
        rng = random.Random(derived_seed(1011, i))
        g = random_graph(
            rng,
            RandomInstanceSpec(vertices=(2, 5), regular_edges=(1, 6), zero_edges=(0, 1), colors=2, connected=False),
        )
        if len(g.edges) <= 7:
            pool.append(g)
    block_cache = [
        [ColoredMultigraph([g.edge(e) for e in grp]) for grp in blocks_bruteforce(g)] for g in pool
    ]
    keys = [pivot_class_key(g) for g in pool]

    def multisets_match(bs1, bs2):
        if len(bs1) != len(bs2):
            return False
        left = list(bs2)
        for b in bs1:
            hit = next((k for k, c in enumerate(left) if colored_isomorphic(b, c)), None)
            if hit is None:
                return False
            left.pop(hit)
        return True

    for i in range(len(pool)):
        for j in range(i, len(pool)):
            ok = ok and (keys[i] == keys[j]) == multisets_match(block_cache[i], block_cache[j])
    _criterion(10, f"pivot-key invariance (1000 pivots, {len(pool)}-graph comparator pool)", 60.0, t0, ok)
