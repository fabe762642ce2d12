import random

import pytest

from conftest import G
from oracles import contracting_sets_by_type
from reltutte import (
    PointedGraph,
    RelPolynomial,
    TensorInstance,
    beta_lambda,
    beta_zero,
    equal_mod_ideal,
    pi_contract,
    pi_delete,
    pivot_class_key,
    pointed_polys,
    sigma,
    tensor_product,
    substitution_rhs,
    universal_tutte_statesum,
    variable,
    verify_tensor_formula,
    z_symbol,
)
from reltutte.errors import InstanceInvalid, InvalidContractingSet, InvalidPartition, NotLinearInZ, TypeMismatch
from reltutte.graph import EMPTY_KEY
from reltutte.pointed import TYPE_C, TYPE_D, TYPE_ZERO, classify_pair
from reltutte.randgen import derived_seed, random_tensor_instance
from reltutte.tensor import compose_contracting_set, induced_partition, product_labeling
from reltutte.textio import format_graph
from reltutte.tutte import ContractingSet, enumerate_contracting_sets


def _patch():
    return PointedGraph(
        G(
            """
            edge ep 1 2 color=nu pointed
            edge r1 1 2 color=mu
            edge h 2 1 color=z0 zero
            """
        )
    )


def _instance(g1_text, patch=None, lam="lam"):
    return TensorInstance(g1=G(g1_text), g2=patch or _patch(), lam=lam)


def test_product_single_bridge_is_patch_minus_pointed():
    ti = _instance("edge f a b color=lam")
    prod = tensor_product(ti)
    assert sorted(e.color for e in prod.edges) == ["mu", "z0"]
    assert pivot_class_key(prod) == pivot_class_key(ti.g2.deleted())


def test_product_single_loop_is_patch_contracted():
    ti = _instance("edge f a a color=lam")
    prod = tensor_product(ti)
    assert pivot_class_key(prod) == pivot_class_key(ti.g2.contracted())


def test_tensor_product_call_forms_share_one_entry():
    from reltutte.tensor import _product

    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    _product.cache_clear()
    prods = [tensor_product(ti), tensor_product(ti, False), tensor_product(ti, flip=False)]
    info = _product.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert prods[0] is prods[1] is prods[2]
    # a second instance takes the one entry; the first instance's hits stay as they were
    ti2 = _instance("edge f1 a b color=lam\nedge f2 b c color=lam\nedge m c a color=mu")
    assert tensor_product(ti2) is tensor_product(ti2, flip=False) is not prods[0]
    info = _product.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 2, 1)


def test_patch_freed_with_last_reference():
    import gc
    import weakref

    def use(ti):  # fills every cache that the bijection and the formula check read
        for cs in enumerate_contracting_sets(tensor_product(ti)):
            induced_partition(ti, cs)
        assert verify_tensor_formula(ti, trials=2).equal

    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    use(ti)
    ref = weakref.ref(ti.g2)
    # another instance takes the one entry of each tensor cache
    use(_instance("edge f1 a b color=lam\nedge m a b color=mu"))
    del ti
    gc.collect()
    assert ref() is None


def test_instance_without_lambda_edges_rejected():
    # a replaced color on no regular base edge would make the product the base itself
    with pytest.raises(InstanceInvalid, match="no regular edge"):
        _instance("edge m a b color=mu\nedge h a b color=z0 zero")
    with pytest.raises(InstanceInvalid, match="no regular edge"):
        _instance("edge f a b color=lam", lam="nope")


def test_product_zero_set_is_union():
    ti = _instance("edge f a b color=lam\nedge f2 b c color=lam\nedge h0 c a color=z0 zero")
    prod = tensor_product(ti)
    assert sorted(prod.zero_ids()) == ["f/h", "f2/h", "h0"]


def test_instance_validation():
    with pytest.raises(InstanceInvalid):
        _instance("edge f a b color=lam\nedge g c d color=mu")  # disconnected
    with pytest.raises(InstanceInvalid):
        _instance("edge f a b color=lam", lam="nu")
    with pytest.raises(InstanceInvalid):
        _instance("edge f a b color=mu", lam="mu", patch=_patch())  # mu also in patch
    with pytest.raises(InstanceInvalid):
        _instance("edge f a b color=lam\nedge f/x b a color=mu")  # copy namespace taken


def test_color_zero_on_one_side_and_regular_on_the_other_rejected():
    # the product would carry mu on zero and on regular edges, so the instance is refused up front
    regular_patch = PointedGraph(G("edge ep 1 2 color=nu pointed\nedge r 1 2 color=mu"))
    zero_patch = PointedGraph(G("edge ep 1 2 color=nu pointed\nedge h 1 2 color=mu zero"))
    with pytest.raises(InstanceInvalid, match=r"colors used both as zero and regular: \['mu'\]"):
        _instance("edge f a b color=lam\nedge h a b color=mu zero", patch=regular_patch)
    with pytest.raises(InstanceInvalid, match=r"colors used both as zero and regular: \['mu'\]"):
        _instance("edge f a b color=lam\nedge r a b color=mu", patch=zero_patch)
    # a color on the same side of the split in both graphs is shared
    for base, patch in (("edge h a b color=mu zero", zero_patch), ("edge r a b color=mu", regular_patch)):
        ti = _instance(f"edge f a b color=lam\n{base}", patch=patch)
        assert "mu" in {e.color for e in tensor_product(ti).edges}


def test_restrictions_are_contracting_sets_of_copies():
    ti = _instance("edge f1 a b color=lam\nedge f2 b a color=lam")
    prod = tensor_product(ti)
    for cs in enumerate_contracting_sets(prod):
        for f in ti.lambda_edge_ids():
            ids = ti.copy_edge_ids(f)
            # the copy's pair over the patch's own ids
            cut = len(f) + 1
            cs_f = ContractingSet(frozenset(e[cut:] for e in cs.contracting & ids), frozenset(e[cut:] for e in cs.deleting & ids))
            classify_pair(ti.g2, cs_f)  # validates internally


def test_bridge_base_edge_never_type_d():
    ti = _instance("edge f a b color=lam\nedge h a b color=z0 zero\nedge m b c color=mu\nedge f2 b c color=lam")
    # f2 parallel to a regular edge can be either side, but a lambda bridge
    # in a cut position cannot have a type-D copy
    g1_bridge = _instance("edge f a b color=lam")
    prod = tensor_product(g1_bridge)
    for cs in enumerate_contracting_sets(prod):
        part = induced_partition(g1_bridge, cs)
        assert "f" not in part.d1


def test_round_trip_and_count_identity():
    ti = _instance(
        """
        edge f1 a b color=lam
        edge f2 b c color=lam
        edge m c a color=mu
        edge h a b color=z0 zero
        """
    )
    prod = tensor_product(ti)
    all_cs = list(enumerate_contracting_sets(prod))
    for cs in all_cs:
        part = induced_partition(ti, cs)
        per_copy = {
            f: ContractingSet(cs.contracting & ti.copy_edge_ids(f), cs.deleting & ti.copy_edge_ids(f))
            for f in ti.lambda_edge_ids()
        }
        rebuilt = compose_contracting_set(ti, (part.c1, part.d1, part.demoted), per_copy)
        assert rebuilt == cs

    # independent cardinality count via the three-step procedure
    from reltutte.graph import RECOLOR_ZERO, recolor_subset

    # every copy has the patch's buckets
    buckets = contracting_sets_by_type(ti.g2)
    lam_ids = ti.lambda_edge_ids()
    total = 0
    for mask in range(1 << len(lam_ids)):
        s = frozenset(lam_ids[i] for i in range(len(lam_ids)) if mask >> i & 1)
        g1s = recolor_subset(ti.g1, s, RECOLOR_ZERO)
        for cs1 in enumerate_contracting_sets(g1s):
            ways = 1
            for f in lam_ids:
                want = TYPE_C if f in cs1.contracting else TYPE_D if f in cs1.deleting else TYPE_ZERO
                ways *= len(buckets[want])
            total += ways
    assert total == len(all_cs)


def test_compose_type_mismatch_rejected():
    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    zero = contracting_sets_by_type(ti.g2)[TYPE_ZERO][0]
    wrong = _cs({f"f1/{e}" for e in zero.contracting}, {f"f1/{e}" for e in zero.deleting})
    # the partition demands a type-D copy for f1 but the choice has type zero
    with pytest.raises(TypeMismatch):
        compose_contracting_set(ti, (frozenset({"m"}), frozenset({"f1"}), frozenset()), {"f1": wrong})


def _cs(c=(), d=()):
    return ContractingSet(frozenset(c), frozenset(d))


def test_induced_partition_rejects_invalid_product_set():
    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    # m and the copy's r1 are parallel in the product: contracting both closes a cycle
    with pytest.raises(InvalidContractingSet):
        induced_partition(ti, _cs(c={"m", "f1/r1"}))


def test_compose_rejects_invalid_inputs():
    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    good_copy = {"f1": _cs(c={"f1/r1"})}
    assert compose_contracting_set(ti, ({"f1"}, {"m"}, ()), good_copy) == _cs(c={"f1/r1"}, d={"m"})
    # the base pair contracts two parallel edges
    with pytest.raises(InvalidContractingSet):
        compose_contracting_set(ti, ({"m", "f1"}, (), ()), good_copy)
    # the copy's set leaves its regular edge out
    with pytest.raises(InvalidContractingSet):
        compose_contracting_set(ti, ({"f1"}, {"m"}, ()), {"f1": _cs()})
    # the copy's set names an edge of the base
    with pytest.raises(InvalidContractingSet):
        compose_contracting_set(ti, ({"f1"}, {"m"}, ()), {"f1": _cs(c={"f1/r1"}, d={"m"})})
    # m is not a lambda-edge, so it cannot be demoted
    with pytest.raises(InvalidPartition):
        compose_contracting_set(ti, ((), {"f1"}, {"m"}), good_copy)

    # two lambda-edges: f1's copy of type C, f2 demoted with a type-zero copy
    two = _instance("edge f1 a b color=lam\nedge f2 b a color=lam")
    part = ({"f1"}, (), {"f2"})
    good = {"f1": _cs(c={"f1/r1"}), "f2": _cs(d={"f2/r1"})}
    assert compose_contracting_set(two, part, good) == _cs(c={"f1/r1"}, d={"f2/r1"})
    # f1's pair names an edge of f2's copy
    with pytest.raises(InvalidContractingSet):
        compose_contracting_set(two, part, {**good, "f1": _cs(c={"f1/r1", "f2/r1"})})
    # f1's pair names the copy's pointed edge, which the product does not have
    with pytest.raises(InvalidContractingSet):
        compose_contracting_set(two, part, {**good, "f1": _cs(c={"f1/r1"}, d={"f1/ep"})})


def test_beta_lambda_substitutions():
    pp = pointed_polys(_patch())
    assert beta_lambda(variable("x", "lam") * z_symbol(EMPTY_KEY), "lam", pp) == pp.tl
    passthrough = variable("x", "mu") * z_symbol(EMPTY_KEY)
    assert beta_lambda(passthrough, "lam", pp) == passthrough
    got = beta_lambda(variable("X", "lam") * variable("Y", "lam"), "lam", pp)
    assert got == pp.tminus * pp.tslash


def test_beta_lambda_preserves_ideal_generators():
    # substituting the pointed polynomials into any generator involving the
    # replaced color yields something that vanishes modulo the ideal
    pp = pointed_polys(_patch())
    for mu in ("mu", "free"):
        x_m, y_m = variable("x", mu), variable("y", mu)
        cx_m, cy_m = variable("X", mu), variable("Y", mu)
        gen_a = pp.tminus * y_m - cx_m * pp.tc - (pp.tl * cy_m - x_m * pp.tslash)
        gen_b = pp.tl * cy_m - x_m * pp.tslash - (pp.tl * y_m - x_m * pp.tc)
        assert equal_mod_ideal(gen_a, RelPolynomial.zero(), trials=32, seed=5)
        assert equal_mod_ideal(gen_b, RelPolynomial.zero(), trials=32, seed=5)


def test_sigma_collapses_multisets():
    a = pivot_class_key(G("edge h 1 2 color=z0 zero"))
    b = pivot_class_key(G("edge h 1 1 color=z1 zero"))
    got = sigma(z_symbol(a) * z_symbol(b))
    assert len(got) == 1
    ((_, zs),) = [m for m, _c in got.terms()]
    assert zs[0].codes == tuple(sorted(a.codes + b.codes))
    # z-linear polynomials are fixed points; sigma is idempotent
    p = variable("x", "mu") * z_symbol(a) + 3 * z_symbol(b)
    assert sigma(p) == p
    q = z_symbol(a) * z_symbol(a) * z_symbol(b)
    assert sigma(sigma(q)) == sigma(q)
    assert sigma(RelPolynomial.const(4) * z_symbol(EMPTY_KEY) * z_symbol(b)) == RelPolynomial.const(4) * z_symbol(b)


def test_sigma_matches_canonicalizing_reference():
    from oracles import reference_sigma

    multi = 0
    for i in range(40):
        ti = random_tensor_instance(random.Random(derived_seed(43, i)), g1_regular=5, g1_lambda=(2, 3), g2_regular=3)
        u = universal_tutte_statesum(ti.g1, demotable=ti.lambda_edge_ids())
        p = beta_lambda(u, ti.lam, pointed_polys(ti.g2))
        p = RelPolynomial({m: c for m, c in p._terms.items() if len(m[1]) > 1})
        assert _terms_and_representatives(sigma(p)) == _terms_and_representatives(reference_sigma(p)), i
        multi += len(p)
    assert multi > 200


def _demoted_graph(*edges):
    from reltutte import ColoredMultigraph, EdgeRecord

    return ColoredMultigraph([EdgeRecord(i, u, v, "lambda0", True) for i, u, v in edges])


def test_beta_zero_passthrough_and_bridge():
    pp = pointed_polys(_patch())
    no_demoted = variable("x", "mu") * z_symbol(pivot_class_key(G("edge h 1 2 color=z0 zero")))
    assert beta_zero(no_demoted, pp.t0) == no_demoted

    lam0_bridge = z_symbol(pivot_class_key(_demoted_graph(("s", "1", "2"))))
    got = beta_zero(lam0_bridge, pp.t0)
    # the type-zero polynomial of the patch is y[mu].z{cycle2(nu,z0)}; gluing
    # the lone demoted edge into that class deletes the pointed edge in place
    want = variable("y", "mu") * z_symbol(pivot_class_key(G("edge h 1 2 color=z0 zero")))
    assert got == want

    # with an empty type-zero polynomial every demoted class is annihilated
    assert beta_zero(lam0_bridge, RelPolynomial.zero()) == RelPolynomial.zero()


def test_beta_zero_loop_class():
    pp = pointed_polys(_patch())
    lam0_loop = z_symbol(pivot_class_key(_demoted_graph(("s", "1", "1"))))
    got = beta_zero(lam0_loop, pp.t0)
    want = variable("y", "mu") * z_symbol(pivot_class_key(G("edge h 1 1 color=z0 zero")))
    assert got == want


def test_beta_zero_keeps_pass_through_terms():
    # a hand-built stage: two classes without demoted edges around one with a lambda0 bridge
    from reltutte import ColoredMultigraph, EdgeRecord

    bridge = pivot_class_key(G("edge h 1 2 color=z0 zero"))
    lam0 = pivot_class_key(
        ColoredMultigraph([EdgeRecord("s", "1", "2", "lambda0", True), EdgeRecord("h", "2", "3", "z0", True)])
    )
    loop = pivot_class_key(G("edge h 1 1 color=z0 zero"))
    stage = RelPolynomial.sum(
        [
            2 * variable("x", "mu") * z_symbol(bridge),
            3 * variable("y", "mu") * z_symbol(lam0),
            variable("x", "rho") * z_symbol(loop),
        ]
    )
    passing = [(m, c) for m, c in stage._terms.items() if m[1][0] is not lam0]

    # a zero type-zero polynomial annihilates the demoted class; the others keep
    # their monomial, their place and their key object
    got = beta_zero(stage, RelPolynomial.zero())
    assert list(got._terms.items()) == passing
    assert all(m[1][0] is want for m, want in zip(got._terms, (bridge, loop)))

    # a nonzero one glues its single term y[mu].z{cycle2(nu,z0)} into the lambda0 bridge
    two_bridges = pivot_class_key(G("edge a 1 2 color=z0 zero\nedge b 2 3 color=z0 zero"))
    got = beta_zero(stage, pointed_polys(_patch()).t0)
    assert [(m, c, [format_graph(k.representative) for k in m[1]]) for m, c in got._terms.items()] == [
        (passing[0][0], 2, ["edge h 1 2 color=z0 zero\n"]),
        ((((("y", "mu"), 2),), (two_bridges,)), 3, ["edge h 2 3 color=z0 zero\nedge s.h 2 1 color=z0 zero\n"]),
        (passing[1][0], 1, ["edge h 1 1 color=z0 zero\n"]),
    ]


def test_beta_zero_order_independence():
    pp = pointed_polys(_patch())
    two_a = z_symbol(pivot_class_key(_demoted_graph(("s1", "1", "2"), ("s2", "2", "3"))))
    two_b = z_symbol(pivot_class_key(_demoted_graph(("s2", "1", "2"), ("s1", "2", "3"))))
    assert beta_zero(two_a, pp.t0) == beta_zero(two_b, pp.t0)


def test_rhs_bridge_case_reduces_to_deletion():
    ti = _instance("edge f a b color=lam")
    pp = pointed_polys(ti.g2)
    rhs = substitution_rhs(ti)
    want = pp.tminus + pi_delete(pp.t0)
    assert equal_mod_ideal(rhs, want, trials=32, seed=3)
    assert equal_mod_ideal(rhs, universal_tutte_statesum(ti.g2.deleted()), trials=32, seed=3)


def test_rhs_loop_case_reduces_to_contraction():
    ti = _instance("edge f a a color=lam")
    pp = pointed_polys(ti.g2)
    rhs = substitution_rhs(ti)
    want = pp.tslash + pi_contract(pp.t0)
    assert equal_mod_ideal(rhs, want, trials=32, seed=3)


def test_trivial_patch_only_full_demotion_survives(trivial_patch):
    # replacing edges by the two-edge patch turns them into plain zero edges;
    # only the subset demoting every replaced edge contributes
    ti = _instance(
        "edge f1 a b color=lam\nedge f2 b c color=lam\nedge m c a color=mu",
        patch=trivial_patch,
    )
    report = verify_tensor_formula(ti, trials=32, seed=11)
    assert report.equal
    prod = tensor_product(ti)
    assert sorted(e.color for e in prod.edges) == ["mu", "z0", "z0"]


def test_no_patch_zero_edges_regime():
    patch = PointedGraph(
        G(
            """
            edge ep 1 2 color=nu pointed
            edge r1 1 2 color=mu
            edge r2 2 3 color=mu
            edge r3 3 1 color=mu
            """
        )
    )
    ti = _instance("edge f1 a b color=lam\nedge h a b color=z0 zero", patch=patch)
    assert pointed_polys(patch).t0 == RelPolynomial.zero()
    report = verify_tensor_formula(ti, trials=32, seed=12)
    assert report.equal


def test_verify_reports_and_corruption():
    ti = _instance("edge f1 a b color=lam\nedge h a b color=z0 zero")
    report = verify_tensor_formula(ti, trials=8, seed=1)
    assert report.equal and report.elapsed >= 0
    assert report.lhs.render() and report.rhs.render()
    bad = verify_tensor_formula(ti, trials=8, seed=1, corrupt_rhs=True)
    assert not bad.equal


@pytest.mark.heavy
def test_formula_exhaustive_small_instances():
    # every base with at most 3 regular edges (1-2 replaced) against every
    # patch with at most 3 regular edges, one optional zero edge on each side
    from oracles import (
        base_graph_family,
        connected_multigraph_structures,
        iso_classes,
        patch_graph_family,
    )

    structures = iso_classes(connected_multigraph_structures(4))
    bases = base_graph_family(structures, lam_counts=(1, 2), regular_cap=3)
    patches = patch_graph_family(structures, regular_cap=3)
    checked = 0
    for i, g1 in enumerate(bases):
        for j, g2 in enumerate(patches):
            ti = TensorInstance(g1=g1, g2=g2, lam="lam")
            report = verify_tensor_formula(ti, trials=8, seed=i * 1009 + j)
            assert report.equal, (i, j)
            checked += 1
    assert checked == len(bases) * len(patches)


def test_formula_randomized_instances():
    for i in range(12):
        rng = random.Random(derived_seed(41, i))
        ti = random_tensor_instance(rng, g1_regular=4, g1_lambda=(1, 2), g2_regular=3)
        report = verify_tensor_formula(ti, trials=16, seed=derived_seed(41, i))
        assert report.equal
        flipped = verify_tensor_formula(ti, trials=16, seed=derived_seed(41, i), flip=True)
        assert flipped.equal  # orientation probe: recorded as a hard expectation here


def test_round_trip_under_flipped_orientation():
    ti = _instance(
        """
        edge f1 a b color=lam
        edge f2 b c color=lam
        edge m c a color=mu
        edge h a b color=z0 zero
        """
    )
    prod = tensor_product(ti, flip=True)
    for cs in enumerate_contracting_sets(prod):
        part = induced_partition(ti, cs, flip=True)
        per_copy = {
            f: ContractingSet(cs.contracting & ti.copy_edge_ids(f), cs.deleting & ti.copy_edge_ids(f))
            for f in ti.lambda_edge_ids()
        }
        assert compose_contracting_set(ti, (part.c1, part.d1, part.demoted), per_copy, flip=True) == cs


def test_product_labeling_is_proper_and_blocked():
    ti = _instance(
        "edge f1 a b color=lam\nedge m a b color=mu\nedge h a b color=z0 zero"
    )
    prod = tensor_product(ti)
    lab = product_labeling(ti, prod)
    lab.validate(prod)
    m = len(ti.g2.graph.edges)
    copy_labels = [lab[eid] for eid in prod.edge_ids() if eid.startswith("f1/") and not prod.edge(eid).is_zero]
    base_label = lab["m"]
    assert base_label % m == 0
    k = sorted(ti.g1.regular_ids()).index("f1") + 1
    assert all((k - 1) * m < v <= k * m for v in copy_labels)


def _rhs_instances():
    # the seeded instances of test_formula_randomized_instances ...
    out = [
        random_tensor_instance(random.Random(derived_seed(41, i)), g1_regular=4, g1_lambda=(1, 2), g2_regular=3)
        for i in range(12)
    ]
    # ... and bases with 1-2 replaced edges against patches shared between them
    from oracles import base_graph_family, connected_multigraph_structures, iso_classes, patch_graph_family

    structures = iso_classes(connected_multigraph_structures(3))
    bases = base_graph_family(structures, lam_counts=(1, 2), regular_cap=3)
    patches = patch_graph_family(structures, regular_cap=3)
    out += [TensorInstance(g1=g1, g2=g2, lam="lam") for g1 in bases[::7] for g2 in patches[:3]]
    return out


def _terms_and_representatives(p):
    # z-keys compare by codes; the glued representatives show the orientation
    return [(m, c, [format_graph(k.representative) for k in m[1]]) for m, c in p.terms()]


@pytest.mark.parametrize("order", [(False, True), (True, False)], ids=["plain-first", "flip-first"])
def test_cached_rhs_matches_uncached_reference(order):
    from oracles import reference_substitution_rhs

    for k, ti in enumerate(_rhs_instances()):
        for flip in order:
            got = substitution_rhs(ti, flip=flip)
            want = reference_substitution_rhs(ti, flip=flip)
            assert _terms_and_representatives(got) == _terms_and_representatives(want), (k, flip)
            assert got.render() == want.render(), (k, flip)


def test_zero_t0_stage_demotes_nothing(monkeypatch):
    # only S = {} survives a zero T_0, so the base's state sum demotes no edge then
    import reltutte.tensor as tensor
    from reltutte.tensor import _orientation_free_stage

    calls = []

    def spy(g, *args, demotable=(), **kwargs):
        calls.append((g, tuple(demotable)))
        return universal_tutte_statesum(g, *args, demotable=demotable, **kwargs)

    monkeypatch.setattr(tensor, "universal_tutte_statesum", spy)
    _orientation_free_stage.cache_clear()
    instances, zero_t0 = _rhs_instances(), 0
    for ti in instances:
        calls.clear()
        substitution_rhs(ti)
        assert len(calls) == 1 and calls[0][0] is ti.g1
        is_zero = pointed_polys(ti.g2).t0.is_zero
        assert calls[0][1] == (() if is_zero else ti.lambda_edge_ids())
        zero_t0 += is_zero
    # both branches, so test_cached_rhs_matches_uncached_reference checks each against the all-subsets oracle
    assert 0 < zero_t0 < len(instances)


def test_zero_t0_skips_beta_zero(monkeypatch):
    # under a zero T_0 the stage holds no demoted class, and it is the right side as it stands
    import reltutte.tensor as tensor
    from reltutte.tensor import _orientation_free_stage

    calls = []

    def spy(p, t0, flip=False):
        calls.append(flip)
        return beta_zero(p, t0, flip=flip)

    monkeypatch.setattr(tensor, "beta_zero", spy)
    _orientation_free_stage.cache_clear()
    instances, zero_t0 = _rhs_instances(), 0
    for ti in instances:
        is_zero = pointed_polys(ti.g2).t0.is_zero
        for flip in (False, True):
            calls.clear()
            rhs = substitution_rhs(ti, flip=flip)
            assert calls == ([] if is_zero else [flip])
            if is_zero:
                assert rhs is _orientation_free_stage(ti)[1]
        zero_t0 += is_zero
    assert 0 < zero_t0 < len(instances)
    # the skipped map's check stays: a stage term without exactly one z-symbol is refused
    ti = next(ti for ti in instances if pointed_polys(ti.g2).t0.is_zero)
    monkeypatch.setattr(tensor, "_orientation_free_stage", lambda ti: (pointed_polys(ti.g2), RelPolynomial.const(1)))
    with pytest.raises(NotLinearInZ):
        substitution_rhs(ti)
    assert calls == []


def test_orientation_free_stage_keeps_one_instance():
    from reltutte.tensor import _orientation_free_stage

    _orientation_free_stage.cache_clear()
    for ti in (
        _instance("edge f1 a b color=lam\nedge m a b color=mu"),
        _instance("edge f1 a b color=lam\nedge f2 b c color=lam\nedge m c a color=mu"),
    ):
        for flip in (False, True):
            substitution_rhs(ti, flip=flip)
    info = _orientation_free_stage.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 1)



def test_assembled_product_breach_is_internal(monkeypatch, capsys):
    import reltutte.suite as suite
    import reltutte.tensor as tensor
    from reltutte.cli import main
    from reltutte.errors import InvariantBreach

    # the copy check reads each per-copy choice with its sides swapped: deleting
    # the copy's only regular edge passes as type C and leaves a cocycle in the product
    def swapped(pg, cs):
        return classify_pair(pg, ContractingSet(cs.deleting, cs.contracting))

    monkeypatch.setattr(tensor, "classify_pair", swapped)
    patch = PointedGraph(G("edge ep 1 2 color=nu pointed\nedge r1 1 2 color=mu"))
    ti = _instance("edge f1 a b color=lam\nedge m a b color=rho", patch)
    with pytest.raises(InvariantBreach, match="assembled product pair"):
        compose_contracting_set(ti, ({"f1"}, {"m"}, set()), {"f1": _cs(d={"f1/r1"})})
    # the suite hands its choices over swapped, so they pass the check and break the product
    monkeypatch.setattr(suite, "ContractingSet", lambda c, d: ContractingSet(d, c))
    assert main(["suite", "--only", "bijection", "--instances", "1", "--seed", "0"]) == 3
    assert "assembled product pair" in capsys.readouterr().err


def test_pulled_back_base_breach_is_internal(monkeypatch, capsys):
    import reltutte.tensor as tensor
    from reltutte.cli import main
    from reltutte.errors import InvariantBreach

    # every copy misread as type D: with m deleted as well, the base pair cuts a from b
    monkeypatch.setattr(tensor, "_classify", lambda pg, cs: TYPE_D)
    ti = _instance("edge f1 a b color=lam\nedge m a b color=mu")
    with pytest.raises(InvariantBreach):
        induced_partition(ti, _cs(c={"f1/r1"}, d={"m"}))
    assert main(["suite", "--only", "bijection", "--instances", "1", "--seed", "0"]) == 3
    assert "pulled-back base pair" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="known counterexamples: instances 131 and 163 of the tensor-formula suite at seed 403 fail in both "
    "orientations; in 131 the sides differ only between two blocks that are Whitney twists of each other",
)
def test_formula_holds_on_seed_403_instances_131_and_163():
    from reltutte.suite import check_tensor_formula

    verdicts = {i: check_tensor_formula(403, i)[:2] for i in (131, 163)}
    assert all(ok for ok, _ in verdicts.values()), verdicts
