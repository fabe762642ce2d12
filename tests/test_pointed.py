import random

import pytest

from conftest import G
from oracles import (
    _classify_by_terminal_status,
    acyclic,
    cocycle_free,
    connected_multigraph_structures,
    contracting_sets_by_type,
    iso_classes,
    patch_graph_family,
    reference_classify,
    reference_validate_contracting_set,
)
from reltutte import (
    PointedGraph,
    RelPolynomial,
    equal_mod_ideal,
    pi_0,
    pi_C,
    pi_L,
    pi_contract,
    pi_delete,
    pivot_class_key,
    pointed_polys,
    universal_tutte_statesum,
    variable,
    z_symbol,
)
from reltutte.errors import InvalidContractingSet, NoPointedEdge, NotLinearInZ, PointedIsLoopOrBridge
from reltutte.pointed import (
    TYPE_C,
    TYPE_D,
    TYPE_ZERO,
    classify_pair,
    universal_with_pointed_zero,
)
from reltutte.randgen import derived_seed, random_pointed_graph
from reltutte.tutte import ContractingSet, enumerate_contracting_sets, validate_contracting_set


def _cs(c=(), d=()):
    return ContractingSet(frozenset(c), frozenset(d))


BRIDGE_Z = pivot_class_key(G("edge h 1 2 color=z0 zero"))
LOOP_Z = pivot_class_key(G("edge h 1 1 color=z0 zero"))


def test_pointed_graph_validation():
    with pytest.raises(NoPointedEdge):
        PointedGraph(G("edge a 1 2 color=mu"))
    with pytest.raises(PointedIsLoopOrBridge):
        PointedGraph(G("edge ep 1 2 color=nu pointed\nedge m 2 3 color=mu"))
    with pytest.raises(PointedIsLoopOrBridge):
        PointedGraph(G("edge ep 1 1 color=nu pointed\nedge m 1 2 color=mu\nedge m2 1 2 color=mu"))


def test_classify_trivial_patch(trivial_patch):
    assert classify_pair(trivial_patch, _cs()) == TYPE_ZERO


def test_classify_figure_left(figure_left):
    assert classify_pair(figure_left, _cs(c={"m"})) == TYPE_ZERO
    assert classify_pair(figure_left, _cs(d={"m"})) == TYPE_D


def test_classify_figure_right(figure_right):
    assert classify_pair(figure_right, _cs(d={"m"})) == TYPE_ZERO
    assert classify_pair(figure_right, _cs(c={"m"})) == TYPE_C


def test_type_characterization_exhaustive():
    # a contracting set w.r.t. the pointed zero set has type C/D/zero exactly
    # when moving the pointed edge between the two sides flips validity
    for i in range(30):
        rng = random.Random(derived_seed(31, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 1))
        g = pg.graph
        e = pg.pointed_id
        for cs in enumerate_contracting_sets(g):
            t = classify_pair(pg, cs)
            c = cs.contracting
            d = cs.deleting
            plain_ok = acyclic(g, sorted(c)) and cocycle_free(g, sorted(d | {e}))
            with_e_ok = acyclic(g, sorted(c | {e})) and cocycle_free(g, sorted(d))
            if t == TYPE_C:
                assert plain_ok and not with_e_ok
            elif t == TYPE_D:
                assert with_e_ok and not plain_ok
            else:
                assert plain_ok and with_e_ok


def test_classify_pair_matches_terminal_status_oracle():
    # the exhaustive patch family of criterion 7, then seeded random patches
    patches = patch_graph_family(iso_classes(connected_multigraph_structures(4)))
    for i in range(30):
        patches.append(random_pointed_graph(random.Random(derived_seed(32, i)), max_regular=4, zero_edges=(0, 2)))
    checked = 0
    for pg in patches:
        for cs in enumerate_contracting_sets(pg.graph):
            assert classify_pair(pg, cs) == _classify_by_terminal_status(pg, cs)
            checked += 1
    assert checked > len(patches)


def _outcome(check, *args):
    try:
        return check(*args)
    except InvalidContractingSet as exc:
        return str(exc)


def test_validation_and_classification_match_rank_definition():
    # random splits of the regular edges, most of them invalid, then every
    # enumerated set; the pointed edge is a zero edge throughout
    outcomes = set()
    for i in range(300):
        rng = random.Random(derived_seed(34, i))
        pg = random_pointed_graph(rng, max_regular=5, zero_edges=(0, 2))
        g, regular = pg.graph, sorted(pg.graph.regular_ids())
        pairs = list(enumerate_contracting_sets(g))
        for _ in range(4):
            c = {e for e in regular if rng.random() < 0.5}
            d = {e for e in regular if e not in c and rng.random() < 0.9} | ({"ep"} if rng.random() < 0.1 else set())
            pairs.append(_cs(c, d))
        for cs in pairs:
            want = _outcome(reference_validate_contracting_set, g, cs)
            assert _outcome(validate_contracting_set, g, cs) == want, (i, cs)
            if want is None:
                assert classify_pair(pg, cs) == reference_classify(pg, cs), (i, cs)
            outcomes.add(want and want.split(" through")[0])
    assert outcomes == {None, "C and D must partition the regular edges", "C contains a cycle", "D contains a cocycle"}


def test_pi_filters():
    # pointed bridge living next to a zero loop
    key_bl = pivot_class_key(G("edge ep a b color=nu pointed\nedge h b b color=z0 zero"))
    assert pi_C(z_symbol(key_bl)) == z_symbol(key_bl)
    assert pi_L(z_symbol(key_bl)) == RelPolynomial.zero()
    assert pi_0(z_symbol(key_bl)) == RelPolynomial.zero()

    key_cycle = pivot_class_key(G("edge ep 1 2 color=nu pointed\nedge h 1 2 color=z0 zero"))
    assert pi_0(z_symbol(key_cycle)) == z_symbol(key_cycle)
    assert pi_C(z_symbol(key_cycle)) == RelPolynomial.zero()

    key_loop = pivot_class_key(G("edge ep 1 1 color=nu pointed"))
    assert pi_L(z_symbol(key_loop)) == z_symbol(key_loop)

    no_nu = z_symbol(BRIDGE_Z)
    assert pi_C(no_nu) == RelPolynomial.zero()
    assert pi_L(no_nu) == RelPolynomial.zero()
    assert pi_0(no_nu) == RelPolynomial.zero()


def test_pi_contract_delete_on_two_cycle():
    key_cycle = pivot_class_key(G("edge ep 1 2 color=nu pointed\nedge h 1 2 color=z0 zero"))
    assert pi_delete(z_symbol(key_cycle)) == z_symbol(BRIDGE_Z)
    assert pi_contract(z_symbol(key_cycle)) == z_symbol(LOOP_Z)
    key_loop = pivot_class_key(G("edge ep 1 1 color=nu pointed\nedge h 1 2 color=z0 zero"))
    assert pi_contract(z_symbol(key_loop)) == RelPolynomial.zero()
    key_bridge = pivot_class_key(G("edge ep 1 2 color=nu pointed"))
    assert pi_delete(z_symbol(key_bridge)) == RelPolynomial.zero()
    no_nu = z_symbol(BRIDGE_Z)
    assert pi_contract(no_nu) == pi_delete(no_nu) == RelPolynomial.zero()


def test_pi_requires_z_linear():
    with pytest.raises(NotLinearInZ):
        pi_C(z_symbol(BRIDGE_Z) * z_symbol(LOOP_Z))


def test_figure_left_golden(figure_left):
    pp = pointed_polys(figure_left)
    x_m, y_m = variable("x", "mu"), variable("y", "mu")
    cx_m = variable("X", "mu")
    assert pp.tminus == (cx_m - x_m) * z_symbol(BRIDGE_Z)
    assert pp.tc == y_m * z_symbol(BRIDGE_Z)
    assert pp.tl == RelPolynomial.zero()
    assert universal_tutte_statesum(figure_left.deleted()) == cx_m * z_symbol(BRIDGE_Z)
    assert pi_delete(pp.t0) == x_m * z_symbol(BRIDGE_Z)


def test_figure_right_golden(figure_right):
    pp = pointed_polys(figure_right)
    y_m, cy_m = variable("y", "mu"), variable("Y", "mu")
    assert pp.tslash == (cy_m - y_m) * z_symbol(LOOP_Z)
    assert universal_tutte_statesum(figure_right.contracted()) == cy_m * z_symbol(LOOP_Z)
    assert pi_contract(pp.t0) == y_m * z_symbol(LOOP_Z)


def test_trivial_patch_golden(trivial_patch):
    pp = pointed_polys(trivial_patch)
    cycle_key = pivot_class_key(trivial_patch.graph)
    assert pp.t0 == z_symbol(cycle_key)
    for poly in (pp.tc, pp.tl, pp.tslash, pp.tminus):
        assert poly == RelPolynomial.zero()


def test_no_zero_edges_means_no_type_zero():
    g = PointedGraph(
        G(
            """
            edge ep a b color=nu pointed
            edge m1 a b color=mu
            edge m2 b c color=mu
            edge m3 c a color=mu
            """
        )
    )
    pp = pointed_polys(g)
    assert pp.t0 == RelPolynomial.zero()
    assert pp.tslash == universal_tutte_statesum(g.contracted())
    assert pp.tminus == universal_tutte_statesum(g.deleted())
    assert not contracting_sets_by_type(g)[TYPE_ZERO]


def test_projection_partition_identity():
    for i in range(25):
        rng = random.Random(derived_seed(32, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        u = universal_with_pointed_zero(pg)
        assert pi_C(u) + pi_L(u) + pi_0(u) == u


def test_exchange_identities_randomized():
    for i in range(25):
        rng = random.Random(derived_seed(33, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        pp = pointed_polys(pg)
        seed = derived_seed(33, i)
        for mu in set(pg.graph.regular_colors()) | {"free"}:
            x_m, y_m = variable("x", mu), variable("y", mu)
            cx_m, cy_m = variable("X", mu), variable("Y", mu)
            assert equal_mod_ideal(
                x_m * (pp.tslash - pp.tc), (cy_m - y_m) * pp.tl, trials=32, seed=seed
            )
            assert equal_mod_ideal(
                y_m * (pp.tminus - pp.tl), (cx_m - x_m) * pp.tc, trials=32, seed=seed
            )


def test_determinant_identities_randomized():
    for i in range(15):
        rng = random.Random(derived_seed(34, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        pp = pointed_polys(pg)
        seed = derived_seed(34, i)
        for mu in set(pg.graph.regular_colors()) | {"free"}:
            x_m, y_m = variable("x", mu), variable("y", mu)
            cx_m, cy_m = variable("X", mu), variable("Y", mu)
            lhs = pp.tl * y_m - pp.tc * x_m
            assert equal_mod_ideal(lhs, pp.tl * cy_m - pp.tslash * x_m, trials=32, seed=seed)
            assert equal_mod_ideal(lhs, pp.tminus * y_m - pp.tc * cx_m, trials=32, seed=seed)


def test_sum_identity_randomized():
    # x*T(G/e) + y*T(G-e) == X*T_C + x*pi_contract(T_0) + Y*T_L + y*pi_delete(T_0)
    for i in range(15):
        rng = random.Random(derived_seed(35, i))
        pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
        pp = pointed_polys(pg)
        contracted = universal_tutte_statesum(pg.contracted())
        deleted = universal_tutte_statesum(pg.deleted())
        seed = derived_seed(35, i)
        for mu in set(pg.graph.regular_colors()) | {"free"}:
            x_m, y_m = variable("x", mu), variable("y", mu)
            cx_m, cy_m = variable("X", mu), variable("Y", mu)
            lhs = x_m * contracted + y_m * deleted
            rhs = cx_m * pp.tc + x_m * pi_contract(pp.t0) + cy_m * pp.tl + y_m * pi_delete(pp.t0)
            assert equal_mod_ideal(lhs, rhs, trials=32, seed=seed)


def test_t0_keys_retain_pointed_edge():
    for i in range(10):
        rng = random.Random(derived_seed(36, i))
        pg = random_pointed_graph(rng, max_regular=3, zero_edges=(1, 2))
        for key in pointed_polys(pg).t0.zkeys():
            assert key.pointed_status() == "inner"


def test_pointed_polys_computed_once_per_graph(monkeypatch):
    import reltutte.pointed as pointed

    calls = []
    real = pointed.universal_tutte_statesum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pointed, "universal_tutte_statesum", counting)
    pg = random_pointed_graph(random.Random(derived_seed(37, 0)), max_regular=3, zero_edges=(1, 2))
    pp, u = pointed_polys(pg), universal_with_pointed_zero(pg)
    assert pointed_polys(pg) is pp and universal_with_pointed_zero(pg) is u
    # U with the pointed edge as zero, then the contraction and the deletion
    assert len(calls) == 3
    fresh = PointedGraph(pg.graph)
    assert pointed_polys(fresh).as_dict() == pp.as_dict()
    assert len(calls) == 6



def test_projections_match_term_by_term_reference(monkeypatch):
    # four patches pooled, signed unit coefficients, the variables of about half the terms
    # dropped: contraction and deletion then merge classes, and some merged terms cancel
    import reltutte.pointed as pointed
    from oracles import reference_map_z_linear
    from reltutte.graph import contract, delete
    from reltutte.poly import monomial_key

    # one key object per graph, so both sides map a representative to the same object
    memo = {}

    def key_of(g):
        if g not in memo:
            memo[g] = pivot_class_key(g)
        return memo[g]

    monkeypatch.setattr(pointed, "pivot_class_key", key_of)

    def kept(status):
        return lambda key: key if key.pointed_status() == status else None

    def moved(op, dropped):
        def act(key):
            if key.pointed_status() in (None, dropped):
                return None
            rep = key.representative
            return key_of(op(rep, rep.pointed_edge().id))

        return act

    cases = [
        (pi_C, kept("bridge")),
        (pi_L, kept("loop")),
        (pi_0, kept("inner")),
        (pi_contract, moved(contract, "loop")),
        (pi_delete, moved(delete, "bridge")),
    ]
    merged = cancelled = 0
    for i in range(20):
        rng = random.Random(derived_seed(42, i))
        terms = {}
        for _ in range(4):
            pg = random_pointed_graph(rng, max_regular=3, zero_edges=(0, 2))
            for vars_, zs in universal_with_pointed_zero(pg)._terms:
                terms.setdefault((vars_ if rng.random() < 0.5 else (), zs), rng.choice((-1, 1)))
        p = RelPolynomial(terms)
        for pi, act in cases:
            got, want = pi(p), reference_map_z_linear(p, act)
            assert list(got._terms.items()) == list(want._terms.items()), (i, pi.__name__)
            assert all(g[1][0] is w[1][0] for g, w in zip(got._terms, want._terms)), (i, pi.__name__)
            groups = {}
            for (vars_, zs), coeff in p._terms.items():
                new_key = act(zs[0])
                if new_key is not None:
                    groups.setdefault(monomial_key(vars_, (new_key,)), []).append(coeff)
            merged += sum(len(cs) > 1 for cs in groups.values())
            cancelled += sum(len(cs) > 1 and not sum(cs) for cs in groups.values())
    assert merged and cancelled, (merged, cancelled)
