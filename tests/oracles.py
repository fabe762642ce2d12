"""Brute-force oracles, independent of the library's code paths, and the
test instruments that the library itself never calls.

The oracles recompute from first principles: subset enumeration, small
determinants over exact fractions, brute-force bijections, and ideal
membership by a Groebner basis (sympy). These stay deliberately dumb so they
can arbitrate against the engine. The instruments (vertex pivots,
psi-specialisation, terminal graphs, activities, contracting sets by type,
canonical graph codes and evaluation points) state the paper's invariants in
tests.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Iterable, Mapping

import sympy

from reltutte import ColoredMultigraph, EdgeRecord, RelPolynomial, variable, z_symbol
from reltutte.errors import EngineError, InvalidContractingSet, LoopTwoSum, NotLinearInZ
from reltutte.graph import (
    RECOLOR_ZERO,
    PivotClassKey,
    _glue_along_edge,
    blocks,
    canonical_atoms,
    contract,
    delete,
    is_bridge,
    pivot_class_key,
    rank,
    recolor_subset,
    single_vertex,
    splice_all,
    union_find,
)
from reltutte.pointed import TYPE_C, TYPE_D, TYPE_ZERO, PointedGraph, _classify, pointed_polys
from reltutte.poly import _coerce, monomial_key
from reltutte.tensor import TensorInstance, beta_lambda, beta_zero
from reltutte.tutte import (
    ContractingSet,
    ProperLabeling,
    _decreasing_order,
    canonical_labeling,
    enumerate_contracting_sets,
    universal_tutte_statesum,
    validate_contracting_set,
)


# -- connectivity by breadth-first search ----------------------------------------


def reference_components(g: ColoredMultigraph) -> list[frozenset]:
    """Vertex sets of the connected components by search, ordered by least vertex."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertex_set}
    for e in g.edges:
        adj[e.u].append((e.v, e.id))
        if not e.is_loop:
            adj[e.v].append((e.u, e.id))
    seen: set[str] = set()
    out = []
    for start in sorted(g.vertex_set):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def _without(g: ColoredMultigraph, removed) -> ColoredMultigraph:
    """g minus the edges in removed, keeping every vertex."""
    return ColoredMultigraph([e for e in g.edges if e.id not in removed], extra_vertices=g.vertex_set)


def reference_is_bridge(g: ColoredMultigraph, eid: str) -> bool:
    """A non-loop edge whose deletion increases the component count."""
    if g.edge(eid).is_loop:
        return False
    return len(reference_components(_without(g, {eid}))) > len(reference_components(g))


def reference_cutpoints(g: ColoredMultigraph) -> tuple[str, ...]:
    """Vertices whose removal increases the component count."""
    base = len(reference_components(g))
    out = []
    for v in sorted(g.vertex_set):
        edges = [e for e in g.edges if v not in (e.u, e.v)]
        rest = ColoredMultigraph(edges, extra_vertices=g.vertex_set - {v})
        if len(reference_components(rest)) > base:
            out.append(v)
    return tuple(out)


# -- vertex pivots -------------------------------------------------------------------


class NotACutpoint(EngineError):
    pass


class BadReattachChoice(EngineError):
    pass


def other_end(e: EdgeRecord, w: str) -> str:
    return e.v if w == e.u else e.u


def cutpoints(g: ColoredMultigraph) -> tuple[str, ...]:
    """Vertices whose removal increases the component count."""
    full = rank(g, g.edge_ids())
    out = []
    for v in sorted(g.vertex_set):
        # removing v drops one vertex; the count grows when the rank drops by more
        if full - rank(g, (e.id for e in g.edges if v not in (e.u, e.v))) > 1:
            out.append(v)
    return tuple(out)


def vertex_pivot(g: ColoredMultigraph, cutpoint: str, reattach: tuple[str, str]) -> ColoredMultigraph:
    """Split g at a cutpoint and re-splice the two parts at the given vertices.

    The first reattach vertex selects the split: its component after removing
    the cutpoint becomes one side (plus a fresh copy of the cutpoint); the
    rest stays with the original cutpoint. The two reattach vertices are then
    identified.
    """
    cutpoint = str(cutpoint)
    a, b = str(reattach[0]), str(reattach[1])
    if cutpoint not in cutpoints(g):
        raise NotACutpoint(f"{cutpoint!r} is not a cutpoint")
    if a == cutpoint or a not in g.vertex_set:
        raise BadReattachChoice(f"{a!r} must be a vertex distinct from the cutpoint")
    find, _ = union_find(g, (e.id for e in g.edges if cutpoint not in (e.u, e.v)))
    root = find(a)
    side = {v for v in g.vertex_set - {cutpoint} if find(v) == root}
    if not any(other_end(e, cutpoint) in side for e in g.edges if cutpoint in (e.u, e.v) and not e.is_loop):
        raise BadReattachChoice(f"the component of {a!r} is not attached to the cutpoint")
    if b in side or b not in g.vertex_set:
        raise BadReattachChoice(f"{b!r} must lie outside the component of {a!r}")
    fresh = cutpoint
    while fresh in g.vertex_set:
        fresh += "'"
    # detach the side of `a` onto a fresh copy of the cutpoint, then identify a with b
    merged = min(a, b)

    def rename(v):
        if v in (a, b):
            return merged
        return v

    edges = []
    for e in g.edges:
        u, v = e.u, e.v
        if not e.is_loop and cutpoint in (u, v) and other_end(e, cutpoint) in side:
            u = fresh if u == cutpoint else rename(u)
            v = fresh if v == cutpoint else rename(v)
        else:
            u, v = rename(u), rename(v)
        if (u, v) != (e.u, e.v):
            edges.append(EdgeRecord(e.id, u, v, e.color, e.is_zero))
        else:
            edges.append(e)
    extra = {rename(v) for v in g.vertex_set}
    extra.add(fresh)
    return ColoredMultigraph(edges, extra_vertices=extra)


# -- rank / classical Tutte -------------------------------------------------------


def edge_rank(g: ColoredMultigraph, ids) -> int:
    """r(A) = |V| - #components of (V, A)."""
    sub = ColoredMultigraph([g.edge(e) for e in ids], extra_vertices=g.vertex_set)
    return len(g.vertex_set) - len(reference_components(sub))


def classical_tutte(g: ColoredMultigraph) -> dict:
    """Rank-nullity state sum: dict (i, j) -> coefficient of x^i y^j."""
    all_ids = list(g.edge_ids())
    r_full = edge_rank(g, all_ids)
    # polynomials in (x-1),(y-1) accumulated then converted by binomial expansion
    acc: dict = {}
    for r in range(len(all_ids) + 1):
        for subset in combinations(all_ids, r):
            ra = edge_rank(g, subset)
            key = (r_full - ra, len(subset) - ra)
            acc[key] = acc.get(key, 0) + 1
    # expand (x-1)^a (y-1)^b
    from math import comb

    out: dict = {}
    for (a, b), c in acc.items():
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = c * comb(a, i) * comb(b, j) * (-1) ** ((a - i) + (b - j))
                if coeff:
                    out[(i, j)] = out.get((i, j), 0) + coeff
                    if out[(i, j)] == 0:
                        del out[(i, j)]
    return out


def spanning_tree_count(g: ColoredMultigraph) -> int:
    """Matrix-tree determinant over exact fractions; loops ignored."""
    verts = sorted(g.vertex_set)
    n = len(verts)
    if n == 1:
        return 1
    idx = {v: i for i, v in enumerate(verts)}
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        i, j = idx[e.u], idx[e.v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    # determinant of the (n-1)x(n-1) minor by Gaussian elimination
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n - 1):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


# -- contracting sets from the definition -------------------------------------------


def acyclic(g: ColoredMultigraph, ids) -> bool:
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for eid in ids:
        e = g.edge(eid)
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def cocycle_free(g: ColoredMultigraph, ids) -> bool:
    return len(reference_components(_without(g, set(ids)))) == len(reference_components(g))


def brute_contracting_sets(g: ColoredMultigraph) -> list:
    regular = sorted(g.regular_ids())
    out = []
    for r in range(len(regular) + 1):
        for c in combinations(regular, r):
            d = [e for e in regular if e not in set(c)]
            if acyclic(g, c) and cocycle_free(g, d):
                out.append((frozenset(c), frozenset(d)))
    return out


def reference_validate_contracting_set(g: ColoredMultigraph, cs: ContractingSet) -> None:
    """The definition by ranks: C and D split the regular edges, r(C) = |C|,
    and r(E - D) = r(E). The cycle named is the first prefix of C, in id
    order, whose rank falls short of its size."""
    regular = set(g.regular_ids())
    if cs.contracting | cs.deleting != regular or cs.contracting & cs.deleting:
        raise InvalidContractingSet("C and D must partition the regular edges")
    c = sorted(cs.contracting)
    for k in range(1, len(c) + 1):
        if edge_rank(g, c[:k]) < k:
            raise InvalidContractingSet(f"C contains a cycle through {c[k - 1]!r}")
    if edge_rank(g, [e for e in g.edge_ids() if e not in cs.deleting]) != edge_rank(g, g.edge_ids()):
        raise InvalidContractingSet("D contains a cocycle")


def reference_classify(pg: PointedGraph, cs: ContractingSet) -> str:
    """Type of a contracting set by ranks: C when r(C + e) = r(C), D when
    r(E - D - e) < r(E), zero otherwise, for the pointed edge e."""
    g, e = pg.graph, pg.pointed_id
    if edge_rank(g, cs.contracting | {e}) == edge_rank(g, cs.contracting):
        return TYPE_C
    if edge_rank(g, [f for f in g.edge_ids() if f not in cs.deleting | {e}]) < edge_rank(g, g.edge_ids()):
        return TYPE_D
    return TYPE_ZERO


# -- blocks and isomorphism ------------------------------------------------------------


def _subset_is_cycle(g: ColoredMultigraph, ids) -> bool:
    deg: dict = {}
    for eid in ids:
        e = g.edge(eid)
        if e.is_loop:
            return len(ids) == 1
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    if not deg or any(d != 2 for d in deg.values()):
        return False
    sub = ColoredMultigraph([g.edge(eid) for eid in ids])
    return len(reference_components(sub)) == 1


def blocks_bruteforce(g: ColoredMultigraph) -> list[frozenset]:
    """Edge sets of blocks: transitive closure of 'lies on a common cycle'."""
    ids = sorted(g.edge_ids())
    parent = {e: e for e in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in range(1, len(ids) + 1):
        for sub in combinations(ids, r):
            if _subset_is_cycle(g, sub):
                base = find(sub[0])
                for other in sub[1:]:
                    parent[find(other)] = base
    groups: dict = {}
    for e in ids:
        groups.setdefault(find(e), set()).add(e)
    return [frozenset(v) for v in groups.values()]


def colored_isomorphic(g1: ColoredMultigraph, g2: ColoredMultigraph) -> bool:
    """Brute-force bijection test respecting colors and flags."""
    v1, v2 = sorted(g1.vertex_set), sorted(g2.vertex_set)
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False

    def profile(g):
        return sorted((e.color, e.is_zero, e.is_pointed, e.is_loop) for e in g.edges)

    if profile(g1) != profile(g2):
        return False

    def edge_multiset(g, mapping=None):
        out = []
        for e in g.edges:
            u, v = e.u, e.v
            if mapping:
                u, v = mapping[u], mapping[v]
            u, v = min(u, v), max(u, v)
            out.append((u, v, e.color, e.is_zero, e.is_pointed))
        return sorted(out)

    target = edge_multiset(g2)
    for perm in permutations(v2):
        mapping = dict(zip(v1, perm))
        if edge_multiset(g1, mapping) == target:
            return True
    return False


def block_multisets_equal(g1: ColoredMultigraph, g2: ColoredMultigraph) -> bool:
    """Match the two block multisets by brute-force isomorphism."""
    bs1 = [ColoredMultigraph([g1.edge(e) for e in grp]) for grp in blocks_bruteforce(g1)]
    bs2 = [ColoredMultigraph([g2.edge(e) for e in grp]) for grp in blocks_bruteforce(g2)]
    if len(bs1) != len(bs2):
        return False
    remaining = list(bs2)
    for b in bs1:
        match = next((i for i, c in enumerate(remaining) if colored_isomorphic(b, c)), None)
        if match is None:
            return False
        remaining.pop(match)
    return True


# -- canonical codes -------------------------------------------------------------------


def canonical_code(g: ColoredMultigraph) -> str:
    """Printable isomorphism code of g: its vertex count and canonical atoms."""
    atoms = canonical_atoms(g.edges, len(g.vertex_set))
    body = ",".join(f"{i}-{j}:{c}" for i, j, c in atoms)
    return f"g{len(g.vertex_set)}({body})"


def _reference_block_code(b: ColoredMultigraph) -> str:
    """A block's code read off a graph built for the block alone."""
    es = b.edges
    if len(es) == 1:
        e = es[0]
        return f"loop({e.color})" if e.is_loop else f"bridge({e.color})"
    if len(es) == 2 and len(b.vertex_set) == 2:
        c1, c2 = sorted(e.color for e in es)
        return f"cycle2({c1},{c2})"
    body = ",".join(f"{i}-{j}:{c}" for i, j, c in canonical_atoms(b.edges, len(b.vertex_set)))
    return f"b{len(b.vertex_set)}({body})"


def reference_pivot_class_key(g: ColoredMultigraph) -> PivotClassKey:
    """Pivot key built block by block: one graph per block, and the
    representative rebuilt from the blocks' edges unless the blocks cover
    every vertex of g."""
    bs = [ColoredMultigraph(b) for b in blocks(g)]
    codes = tuple(sorted(_reference_block_code(b) for b in bs))
    if not bs:
        return PivotClassKey(codes, single_vertex())
    used = {x for b in bs for x in b.vertex_set}
    return PivotClassKey(codes, ColoredMultigraph([e for b in bs for e in b.edges]) if used != g.vertex_set else g)


# -- reference canonical form -------------------------------------------------------------


def reference_canonical_order(vs, loop_colors, pair_colors):
    """Vertex ordering minimizing the row-wise adjacency encoding, by a plain beam.

    Row k of an ordering lists the loop colors at the k-th vertex followed by
    the edge colors towards each earlier vertex. The beam keeps every prefix
    whose rows tie with the best so far, so it walks all symmetric prefixes;
    it is the unpruned reference for the engine's ``canonical_code``.
    """
    beam = [((), frozenset(vs))]
    rows = []
    for _ in range(len(vs)):
        best_row = None
        nxt = []
        for seq, rem in beam:
            for v in sorted(rem):
                row = (loop_colors.get(v, ()),) + tuple(
                    pair_colors.get((v, u) if v <= u else (u, v), ()) for u in seq
                )
                if best_row is None or row < best_row:
                    best_row = row
                    nxt = [(seq + (v,), rem - {v})]
                elif row == best_row:
                    nxt.append((seq + (v,), rem - {v}))
        rows.append(best_row)
        beam = nxt
    return beam[0][0], tuple(rows)


def reference_canonical_code(g: ColoredMultigraph) -> str:
    """``canonical_code`` recomputed through ``reference_canonical_order``."""
    sig = sorted(e.endpoints() + (e.color,) for e in g.edges)
    loop_colors: dict = {}
    pair_colors: dict = {}
    for u, v, c in sig:
        if u == v:
            loop_colors.setdefault(u, []).append(c)
        else:
            pair_colors.setdefault((u, v), []).append(c)
    loop_colors = {k: tuple(sorted(v)) for k, v in loop_colors.items()}
    pair_colors = {k: tuple(sorted(v)) for k, v in pair_colors.items()}
    order, _rows = reference_canonical_order(sorted(g.vertex_set), loop_colors, pair_colors)
    pos = {v: i for i, v in enumerate(order)}
    atoms = sorted(tuple(sorted((pos[u], pos[v]))) + (c,) for u, v, c in sig)
    body = ",".join(f"{i}-{j}:{c}" for i, j, c in atoms)
    return f"g{len(g.vertex_set)}({body})"


def reference_maximum_cliques(masks, cand):
    """Every maximum clique inside the bitmask cand, bounded by the candidate count only."""
    best, found = 0, []
    # depth-first, each clique grown in decreasing vertex order so it is met once
    stack = [((), cand)]
    while stack:
        clique, cand = stack[-1]
        if not cand or len(clique) + cand.bit_count() < best:
            stack.pop()
            continue
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        stack[-1] = (clique, cand)
        grown, rest = clique + (v,), cand & masks[v]
        if rest:
            stack.append((grown, rest))
        elif len(grown) >= best:
            if len(grown) > best:
                best, found = len(grown), []
            found.append(grown)
    return found


# -- the deletion-contraction walk on rebuilt minors --------------------------------------


class Activity(Enum):
    IA = "internally-active"
    II = "internally-inactive"
    EA = "externally-active"
    EI = "externally-inactive"


_WEIGHT_KIND = {Activity.IA: "X", Activity.II: "x", Activity.EA: "Y", Activity.EI: "y"}
_CONTRACTED = frozenset({Activity.IA, Activity.II})


def reference_walk(g: ColoredMultigraph, order: list[str], cs: ContractingSet | None = None):
    """The deletion-contraction walk over the regular edges in ``order``, one
    rebuilt minor per node.

    A loop is deleted (EA), a bridge is contracted (IA), and any other edge is
    contracted (II) and then deleted (EI). Yields one (steps, weight, terminal
    graph) triple per leaf: steps are the (edge id, activity) pairs taken and
    weight counts them by (kind, color). Both are live and change after the
    next leaf. With ``cs``, only the branch that contracts exactly
    cs.contracting is followed.
    """
    steps: list[tuple[str, Activity]] = []
    weight: dict[tuple[str, str], int] = {}

    def visit(graph: ColoredMultigraph, i: int):
        if i == len(order):
            yield steps, weight, graph
            return
        eid = order[i]
        e = graph.edge(eid)
        if e.is_loop:
            branches = (Activity.EA,)
        elif is_bridge(graph, eid):
            branches = (Activity.IA,)
        else:
            branches = (Activity.II, Activity.EI)
        for act in branches:
            contracted = act in _CONTRACTED
            if cs is not None and contracted != (eid in cs.contracting):
                continue
            key = (_WEIGHT_KIND[act], e.color)
            steps.append((eid, act))
            weight[key] = weight.get(key, 0) + 1
            yield from visit(contract(graph, eid) if contracted else delete(graph, eid), i + 1)
            weight[key] -= 1
            steps.pop()

    return visit(g, 0)


def terminal_graph(g: ColoredMultigraph, lab: ProperLabeling, cs: ContractingSet) -> ColoredMultigraph:
    """The all-zero-edge graph left after processing in decreasing label order."""
    validate_contracting_set(g, cs)
    ((_, _, t),) = reference_walk(g, _decreasing_order(g, lab), cs)
    return t


def activities(g: ColoredMultigraph, lab: ProperLabeling, cs: ContractingSet) -> dict[str, Activity]:
    """Activities by replaying contractions/deletions in decreasing label order."""
    validate_contracting_set(g, cs)
    # copy the live steps before the walk moves on and pops them
    (acts,) = (dict(steps) for steps, _, _ in reference_walk(g, _decreasing_order(g, lab), cs))
    return acts


# -- state sum leaf by leaf ----------------------------------------------------------------


def reference_statesum(g: ColoredMultigraph, lab: ProperLabeling | None = None) -> RelPolynomial:
    """State sum over all contracting sets; linear in the z-symbols."""
    lab = lab or canonical_labeling(g)
    terms: dict = {}
    for _, weight, graph in reference_walk(g, _decreasing_order(g, lab)):
        m = monomial_key(weight.items(), (pivot_class_key(graph),))
        terms[m] = terms.get(m, 0) + 1
    return RelPolynomial(terms)


# -- deletion-contraction on rebuilt minors ------------------------------------------------


def reference_recursive(g: ColoredMultigraph) -> RelPolynomial:
    """Deletion-contraction on the regular edge of largest id, one rebuilt minor per node."""
    regular = g.regular_ids()
    if not regular:
        return z_symbol(pivot_class_key(g))
    eid = max(regular)
    e = g.edge(eid)
    if e.is_loop:
        return variable("Y", e.color) * reference_recursive(delete(g, eid))
    if is_bridge(g, eid):
        return variable("X", e.color) * reference_recursive(contract(g, eid))
    contracted, deleted = reference_recursive(contract(g, eid)), reference_recursive(delete(g, eid))
    return variable("x", e.color) * contracted + variable("y", e.color) * deleted


# -- psi-specialisation ------------------------------------------------------------------


class MissingKey(EngineError):
    pass


def specialize_psi(
    p: RelPolynomial,
    psi: Mapping[PivotClassKey, RelPolynomial] | Callable[[PivotClassKey], RelPolynomial],
) -> RelPolynomial:
    """Substitute every z-symbol of a z-linear polynomial by its psi image."""
    lookup = psi if callable(psi) else psi.__getitem__
    parts = []
    for (vars_, zs), coeff in p.terms():
        if len(zs) > 1:
            raise NotLinearInZ(f"monomial carries {len(zs)} z-symbols")
        base = RelPolynomial({(vars_, ()): coeff})
        if zs:
            try:
                image = lookup(zs[0])
            except KeyError:
                raise MissingKey(f"psi undefined on {zs[0].render()}") from None
            image = _coerce(image)
            if any(z for _, z in image._terms):
                raise NotLinearInZ("psi image must be free of z-symbols")
            base = base * image
        parts.append(base)
    return RelPolynomial.sum(parts)


# -- reference substitution pipeline -------------------------------------------------------


def reference_sigma(p: RelPolynomial) -> RelPolynomial:
    """Collapse each monomial's z-multiset into the canonical key of its factors' splice."""
    terms: dict = {}
    for (vars_, zs), coeff in p.terms():
        if len(zs) > 1:
            key = pivot_class_key(splice_all([k.representative for k in zs]))
            m = monomial_key(vars_, (key,))
        else:
            m = (vars_, zs)
        terms[m] = terms.get(m, 0) + coeff
    return RelPolynomial(terms)


def reference_substitution_rhs(ti: TensorInstance, flip: bool = False) -> RelPolynomial:
    """The substitution side recomputed from scratch: a state sum of its own
    and every stage for every demoted subset, with pointed polynomials of a
    fresh copy of the patch, so no cached pointed polynomial or
    orientation-free stage is read."""
    pp = pointed_polys(PointedGraph(ti.g2.graph))
    lam_ids = ti.lambda_edge_ids()
    parts = []
    for mask in range(1 << len(lam_ids)):
        s = frozenset(lam_ids[i] for i in range(len(lam_ids)) if mask >> i & 1)
        g1s = recolor_subset(ti.g1, s, RECOLOR_ZERO)
        u = universal_tutte_statesum(g1s)
        parts.append(beta_zero(reference_sigma(beta_lambda(u, ti.lam, pp)), pp.t0, flip=flip))
    return RelPolynomial.sum(parts)


# -- exhaustive families ------------------------------------------------------------------


def iso_classes(graphs):
    """Deduplicate a graph stream by canonical code, preserving first hits."""
    out = {}
    for g in graphs:
        out.setdefault(canonical_code(g), g)
    return list(out.values())


def base_graph_family(structures, lam_counts=(1, 2), max_zero=1, regular_cap=None):
    """Colored bases for tensor instances: lam/mu regular edges plus z0 zero
    edges, enumerated over the given uncolored structures, deduplicated."""
    fam = {}
    for g in structures:
        ids = sorted(g.edge_ids())
        zero_choices = [()] + ([(e,) for e in ids] if max_zero else [])
        for z in zero_choices:
            regular = [e for e in ids if e not in set(z)]
            if regular_cap is not None and len(regular) > regular_cap:
                continue
            for k in lam_counts:
                if not 1 <= k <= len(regular):
                    continue
                for lam in combinations(regular, k):
                    edges = []
                    for e in g.edges:
                        if e.id in set(lam):
                            edges.append(EdgeRecord(e.id, e.u, e.v, "lam", False))
                        elif e.id in set(z):
                            edges.append(EdgeRecord(e.id, e.u, e.v, "z0", True))
                        else:
                            edges.append(EdgeRecord(e.id, e.u, e.v, "mu", False))
                    cand = ColoredMultigraph(edges, extra_vertices=g.vertex_set)
                    fam.setdefault(canonical_code(cand), cand)
    return list(fam.values())


def patch_graph_family(structures, max_zero=1, regular_cap=None):
    """Pointed patches: one edge recolored nu/pointed (must be neither loop
    nor bridge), optionally one zero edge, the rest mu; deduplicated."""
    fam = {}
    for g in structures:
        ids = sorted(g.edge_ids())
        for ep in ids:
            e = g.edge(ep)
            if e.is_loop or reference_is_bridge(g, ep):
                continue
            rest = [x for x in ids if x != ep]
            zero_choices = [()] + ([(x,) for x in rest] if max_zero else [])
            for z in zero_choices:
                if regular_cap is not None and len(rest) - len(z) > regular_cap:
                    continue
                edges = []
                for f in g.edges:
                    if f.id == ep:
                        edges.append(EdgeRecord(f.id, f.u, f.v, "nu", False))
                    elif f.id in set(z):
                        edges.append(EdgeRecord(f.id, f.u, f.v, "z0", True))
                    else:
                        edges.append(EdgeRecord(f.id, f.u, f.v, "mu", False))
                cand = ColoredMultigraph(edges, extra_vertices=g.vertex_set)
                try:
                    pg = PointedGraph(cand)
                except EngineError:
                    continue
                fam.setdefault(canonical_code(cand), pg)
    return list(fam.values())


def connected_multigraph_structures(max_edges: int, min_edges: int = 1):
    """All connected multigraphs (uncolored) with min..max edges, up to raw
    labeling. Loops and parallels included; dedup is left to the caller."""
    for m in range(min_edges, max_edges + 1):
        for n in range(1, m + 2):
            verts = [str(i) for i in range(n)]
            if n == m + 1:
                # connectivity forces a tree: no loops, no parallel edges
                pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
                candidates = combinations(pairs, m)
            else:
                pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i:]]
                candidates = combinations_with_replacement(pairs, m)
            for chosen in candidates:
                touched = {x for uv in chosen for x in uv}
                if len(touched) != n:
                    continue
                # cheap union-find connectivity check before building the graph
                parent = {v: v for v in verts}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for u, v in chosen:
                    parent[find(u)] = find(v)
                if len({find(v) for v in verts}) != 1:
                    continue
                edges = [EdgeRecord(f"e{k}", u, v, "c", False) for k, (u, v) in enumerate(chosen)]
                yield ColoredMultigraph(edges, extra_vertices=verts)


# -- activities, weights and types by other routes ----------------------------------


def activities_via_cycles(g: ColoredMultigraph, lab: ProperLabeling, cs: ContractingSet) -> dict[str, Activity]:
    """Independent activity oracle via explicit cycle/cocycle subset search.

    An edge of C is internally active iff some cocycle inside D+{e} has e as
    its smallest edge; an edge of D is externally active iff some cycle inside
    C+{f} has f as its smallest edge. Exponential in |C| and |D|; intended for
    cross-checking on small graphs.
    """
    validate_contracting_set(g, cs)
    lab.validate(g)
    acts: dict[str, Activity] = {}
    d_sorted = sorted(cs.deleting)
    c_sorted = sorted(cs.contracting)
    for eid in c_sorted:
        active = False
        for r in range(len(d_sorted) + 1):
            for extra in combinations(d_sorted, r):
                cand = set(extra) | {eid}
                if _is_cocycle(g, cand) and all(lab[eid] < lab[f] for f in extra):
                    active = True
                    break
            if active:
                break
        acts[eid] = Activity.IA if active else Activity.II
    for eid in d_sorted:
        active = False
        for r in range(len(c_sorted) + 1):
            for extra in combinations(c_sorted, r):
                cand = set(extra) | {eid}
                if _is_cycle(g, cand) and all(lab[eid] < lab[f] for f in extra):
                    active = True
                    break
            if active:
                break
        acts[eid] = Activity.EA if active else Activity.EI
    return acts


def _is_cycle(g: ColoredMultigraph, ids: set) -> bool:
    """True iff the edge set forms one single cycle (a lone loop counts)."""
    deg: dict[str, int] = {}
    for eid in ids:
        e = g.edge(eid)
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
        if e.is_loop:
            return len(ids) == 1
    if any(d != 2 for d in deg.values()):
        return False
    sub = ColoredMultigraph([g.edge(eid) for eid in ids])
    return len(reference_components(sub)) == 1


def _is_cocycle(g: ColoredMultigraph, ids: set) -> bool:
    """True iff the edge set is a minimal cut of g."""
    base = len(reference_components(g))

    def comps_without(removed):
        return len(reference_components(_without(g, removed)))

    if comps_without(ids) <= base:
        return False
    return all(comps_without(ids - {x}) == base for x in ids)


def weight_polynomial(acts: Mapping[str, Activity], g: ColoredMultigraph) -> RelPolynomial:
    """Product of per-edge activity weights."""
    out = RelPolynomial.const(1)
    for eid, act in acts.items():
        out = out * variable(_WEIGHT_KIND[act], g.edge(eid).color)
    return out


def contracting_sets_by_type(pg: PointedGraph) -> dict[str, list[ContractingSet]]:
    """All contracting sets with the pointed edge as zero, bucketed by type."""
    buckets: dict[str, list[ContractingSet]] = {TYPE_C: [], TYPE_D: [], TYPE_ZERO: []}
    for cs in enumerate_contracting_sets(pg.graph):
        buckets[_classify(pg, cs)].append(cs)
    return buckets


def _classify_by_terminal_status(pg: PointedGraph, cs: ContractingSet) -> str:
    """Cross-check: contract C and delete D, then look at the pointed edge."""
    lab = canonical_labeling(pg.graph)
    ((_, _, t),) = reference_walk(pg.graph, _decreasing_order(pg.graph, lab), cs)
    if t.edge(pg.pointed_id).is_loop:
        return TYPE_C
    if reference_is_bridge(t, pg.pointed_id):
        return TYPE_D
    return TYPE_ZERO


def reference_map_z_linear(p: RelPolynomial, fn: Callable[[PivotClassKey], PivotClassKey | None]) -> RelPolynomial:
    """Apply key -> new key, or None to drop the term, to a z-linear p term by term.

    Each kept term becomes its own ``RelPolynomial.monomial`` and the parts
    are added by ``RelPolynomial.sum``, in the order p holds its terms.
    """
    parts = []
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) != 1:
            raise NotLinearInZ("operation requires exactly one z-symbol per monomial")
        new_key = fn(zs[0])
        if new_key is not None:
            parts.append(RelPolynomial.monomial(coeff, vars_, (new_key,)))
    return RelPolynomial.sum(parts)


# -- ideal generators and 2-sums --------------------------------------------------------


def ideal_generators(lam: str, mu: str) -> tuple[RelPolynomial, RelPolynomial]:
    """The two determinant-difference generators for a pair of colors."""
    x_l, x_m = variable("x", lam), variable("x", mu)
    y_l, y_m = variable("y", lam), variable("y", mu)
    cx_l, cx_m = variable("X", lam), variable("X", mu)
    cy_l, cy_m = variable("Y", lam), variable("Y", mu)
    gen_a = (cx_l * y_m - cx_m * y_l) - (x_l * cy_m - x_m * cy_l)
    gen_b = (x_l * cy_m - x_m * cy_l) - (x_l * y_m - x_m * y_l)
    return gen_a, gen_b


# -- equality modulo the labeling ideal, by evaluation and by reduction ---------------------


class EvaluationPoint:
    """Numeric assignment that annihilates the ideal by construction.

    Per color the point stores integers (x, y); the active weights derive as
    X = x + beta*y and Y = y + alpha*x with two global scalars. z-symbols get
    explicit values. A color or z-symbol the point does not hold raises
    MissingKey.
    """

    def __init__(
        self,
        xy: Mapping[str, tuple[int, int]] | None = None,
        alpha: int = 0,
        beta: int = 0,
        z_values: Mapping[PivotClassKey, int] | None = None,
    ):
        self._xy = dict(xy or {})
        self.alpha = int(alpha)
        self.beta = int(beta)
        self._z = dict(z_values or {})

    def var_value(self, kind: str, color: str) -> int:
        try:
            x, y = self._xy[color]
        except KeyError:
            raise MissingKey(f"no value for color {color!r}") from None
        if kind == "x":
            return x
        if kind == "y":
            return y
        if kind == "X":
            return x + self.beta * y
        if kind == "Y":
            return y + self.alpha * x
        raise ValueError(f"unknown variable kind {kind!r}")

    def z_value(self, key: PivotClassKey) -> int:
        try:
            return self._z[key]
        except KeyError:
            raise MissingKey(f"no value for {key.render()}") from None

    @staticmethod
    def random(colors: Iterable[str], keys: Iterable[PivotClassKey], bound: int, rng: random.Random) -> "EvaluationPoint":
        """Draw alpha and beta, then (x, y) per sorted color, then z per sorted key."""
        alpha = rng.randint(-bound, bound)
        beta = rng.randint(-bound, bound)
        xy = {c: (rng.randint(-bound, bound), rng.randint(-bound, bound)) for c in sorted(colors)}
        zv = {k: rng.randint(2, bound) for k in sorted(keys, key=lambda k: k.codes)}
        return EvaluationPoint(xy=xy, alpha=alpha, beta=beta, z_values=zv)


def evaluate(p: RelPolynomial, pt: EvaluationPoint) -> int:
    total = 0
    for (vars_, zs), coeff in p._terms.items():
        val = coeff
        for (kind, color), exp in vars_:
            val *= pt.var_value(kind, color) ** exp
        for key in zs:
            val *= pt.z_value(key)
        total += val
    return total


def reference_equal_mod_ideal(p: RelPolynomial, q: RelPolynomial, trials: int = 32, seed: int = 0) -> bool:
    """``equal_mod_ideal`` at the same points, one ``EvaluationPoint`` per trial."""
    diff = p - q
    if diff.is_zero:
        return True
    bound = 10 * (1 + max(p.max_total_degree(), q.max_total_degree()))
    rng = random.Random(seed)
    for _ in range(trials):
        if evaluate(diff, EvaluationPoint.random(diff.colors(), diff.zkeys(), bound, rng)) != 0:
            return False
    return True


@lru_cache(maxsize=None)
def _labeling_ideal(colors: tuple[str, ...]):
    """Symbols per (kind, color) and a Groebner basis of every color pair's generators."""
    syms = {(kind, c): sympy.Symbol(f"{kind}_{c}") for c in colors for kind in ("x", "X", "y", "Y")}
    gens = [_to_sympy(g, syms) for lam, mu in combinations(colors, 2) for g in ideal_generators(lam, mu)]
    return syms, (sympy.groebner(gens, *syms.values(), order="grevlex") if gens else None)


def _to_sympy(p: RelPolynomial, syms: dict):
    out = sympy.Integer(0)
    for (vars_, _zs), coeff in p._terms.items():
        term = coeff
        for var, exp in vars_:
            term *= syms[var] ** exp
        out += term
    return out


def reference_in_ideal(p: RelPolynomial, q: RelPolynomial) -> bool:
    """Whether p - q lies in the labeling ideal of the colors of p and q.

    The ideal has no z-symbol in its generators, so p - q lies in it exactly
    when each z-key's coefficient polynomial does; each is reduced by a
    Groebner basis of ``ideal_generators`` over all pairs of colors.
    """
    by_key: dict[tuple, dict] = {}
    for (vars_, zs), coeff in (p - q)._terms.items():
        by_key.setdefault(zs, {})[(vars_, ())] = coeff
    syms, basis = _labeling_ideal(tuple(sorted(p.colors() | q.colors())))
    for terms in by_key.values():
        expr = _to_sympy(RelPolynomial(terms), syms)
        if basis is None or not basis.contains(expr):
            return False
    return True


def two_sum(
    base: ColoredMultigraph,
    base_edge: str,
    patch: ColoredMultigraph,
    patch_edge: str,
    flip: bool = False,
) -> ColoredMultigraph:
    """2-sum: identify two non-loop edges endpoint-to-endpoint and remove both.

    Endpoints are matched in ascending vertex-id order on both sides unless
    ``flip`` reverses the base side.
    """
    if base.edge(base_edge).is_loop:
        raise LoopTwoSum(f"base edge {base_edge!r} is a loop")
    return _glue_along_edge(base, base_edge, patch, patch_edge, f"{base_edge}.", flip)
