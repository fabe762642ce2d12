"""The universal relative Tutte polynomial.

The walk takes the regular edges in decreasing label order, branching into
contract/delete decisions: contracting a loop and deleting a bridge are
forbidden, a forced contraction of a bridge contributes X, a forced deletion
of a loop contributes Y, and the free branches contribute x (contract) and y
(delete). The leaves of this walk are exactly the contracting sets, the
accumulated weights are the activity weights, and the surviving all-zero-edge
graph is the terminal graph whose pivot class indexes the z-symbol.

A node's minor is the vertex partition its contractions induce, each block
named by its least vertex as ``contract`` names it; ``_moves`` reads a node's
branches off it, each tagged with its weight letter. Its bridge test joins the
later edges on a copy of the partition, with path halving on the copy only,
and stops at the first join of the edge's two blocks. Enumeration follows the
walk node by node. The state sum counts the leaves level by level: equal
partitions have equal subtrees and merge. Each weight keeps its least branch
path, which orders like the walk's leaves. The recursion checks the state sum
on its own union-find, top down: it carries each path's packed weight down the
stack, undoes contractions through a trail of merged roots, and counts one per
leaf. It runs the same early-exit bridge test inline on a copy of its
union-find, whose own parent links the trail undoes and so are never halved.
Both walks compute one pivot key per zero-edge projection (the block roots of
the zero edges' ends) in a call: a terminal graph depends on no more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import ImproperLabeling, InvalidContractingSet, NotRegular
from .graph import EMPTY_KEY, RECOLOR_ZERO, ColoredMultigraph, EdgeRecord, PivotClassKey, pivot_class_key, union_find
from .poly import RelPolynomial, monomial_key


@dataclass(frozen=True)
class ContractingSet:
    contracting: frozenset
    deleting: frozenset


class ProperLabeling:
    """Edge labeling: zero exactly on the zero edges (the pointed edge among them), injective on regular edges."""

    def __init__(self, labels: Mapping[str, int]):
        self.labels = {str(k): int(v) for k, v in labels.items()}

    def __getitem__(self, eid: str) -> int:
        return self.labels[eid]

    def validate(self, g: ColoredMultigraph) -> None:
        regular = set(g.regular_ids())
        zero = set(g.zero_ids())
        if set(self.labels) != regular | zero:
            raise ImproperLabeling("labeling does not cover the edge set exactly")
        pos = [self.labels[e] for e in regular]
        if any(p <= 0 for p in pos) or len(set(pos)) != len(pos):
            raise ImproperLabeling("regular edges need distinct positive labels")
        if any(self.labels[e] != 0 for e in zero):
            raise ImproperLabeling("zero edges must be labeled 0")


def canonical_labeling(g: ColoredMultigraph) -> ProperLabeling:
    """Regular edges sorted by id get labels 1..k; zero edges, the pointed edge included, get 0."""
    labels = {eid: 0 for eid in g.zero_ids()}
    for i, eid in enumerate(sorted(g.regular_ids()), start=1):
        labels[eid] = i
    return ProperLabeling(labels)


def _decreasing_order(g: ColoredMultigraph, lab: ProperLabeling) -> list[str]:
    lab.validate(g)
    return sorted(g.regular_ids(), key=lambda e: lab[e], reverse=True)


def _frame(g: ColoredMultigraph, lab: ProperLabeling) -> tuple[list, list, list, list]:
    """The integer frame of a walk: the regular edges in decreasing label
    order, the vertex names sorted (a vertex is its index), the zero edges,
    and the index ends of the regular edges followed by the zero edges."""
    order = [g.edge(eid) for eid in _decreasing_order(g, lab)]
    zero = [g.edge(eid) for eid in g.zero_ids()]
    names = sorted(g.vertex_set)
    index = {v: i for i, v in enumerate(names)}
    return order, names, zero, [(index[e.u], index[e.v]) for e in order + zero]


def _packing(order: list[EdgeRecord]) -> tuple[dict, Callable]:
    """Units of a weight packed as one base-(k + 1) digit per (kind, color) of the k edges ``order``, and its
    unpacking with the z-key of a leaf's zero-edge projection. The symbols are ranked once, in ``monomial_key``'s order."""
    base, symbols = len(order) + 1, dict.fromkeys((kind, e.color) for e in order for kind in "XxYy")
    unit = {s: base**i for i, s in enumerate(symbols)}
    ranked = [(s, unit[s]) for s, _ in monomial_key(((s, 1) for s in unit), ())[0]]
    return unit, lambda w, key: (tuple((s, e) for s, u in ranked if (e := w // u % base)), (key if key.codes else EMPTY_KEY,))


def _moves(part: tuple, ab: tuple, later: list) -> tuple:
    """The walk's branches at an edge of ends ``ab`` of a partition's minor,
    as (next partition, weight letter) pairs: a loop is deleted (Y), a bridge
    contracted (X), and any other edge contracted (x), then deleted (y). The
    minor keeps the edges ``later`` besides the blocks."""
    lo, hi = part[ab[0]], part[ab[1]]
    if lo == hi:
        return ((part, "Y"),)
    if lo > hi:
        lo, hi = hi, lo
    merged = tuple(lo if r == hi else r for r in part)
    if not _joined(part, lo, hi, later):
        return ((merged, "X"),)
    return ((merged, "x"), (part, "y"))


def enumerate_contracting_sets(g: ColoredMultigraph, lab: Optional[ProperLabeling] = None) -> Iterator[ContractingSet]:
    """All contracting sets, each exactly once, in contract-first branch order.

    Walks the partitions of the vertex indices, keeping the (edge id,
    contracted) pairs of the current path. The stack is explicit, so no path
    length meets the interpreter's recursion limit."""
    order, names, _, ends = _frame(g, lab or canonical_labeling(g))
    steps: list[tuple[str, bool]] = []
    stack = [(0, None, tuple(range(len(names))))]
    while stack:
        i, step, part = stack.pop()
        if i:
            steps[i - 1 :] = [step]
        if i == len(order):
            c = frozenset(eid for eid, contracted in steps if contracted)
            yield ContractingSet(c, frozenset(eid for eid, _ in steps) - c)
            continue
        eid = order[i].id
        for target, kind in reversed(_moves(part, ends[i], ends[i + 1 :])):
            stack.append((i + 1, (eid, kind in "Xx"), target))


def validate_contracting_set(g: ColoredMultigraph, cs: ContractingSet) -> None:
    """Definition-level check: C cycle-free, D cocycle-free, C+D the regular edges."""
    regular = set(g.regular_ids())
    if cs.contracting | cs.deleting != regular or cs.contracting & cs.deleting:
        raise InvalidContractingSet("C and D must partition the regular edges")
    _, closing = union_find(g, cs.contracting)
    if closing:
        raise InvalidContractingSet(f"C contains a cycle through {closing[0]!r}")
    # D is cocycle-free exactly when E - D joins the ends of every edge of D
    find, _ = union_find(g, (e.id for e in g.edges if e.id not in cs.deleting))
    if any(find(e.u) != find(e.v) for e in map(g.edge, cs.deleting)):
        raise InvalidContractingSet("D contains a cocycle")


def _terminal_key(proj: tuple, names: list, zero: list) -> PivotClassKey:
    """The pivot key of a terminal graph from its zero-edge projection, the block roots of the zero edges'
    ends in order: the zero edges re-pointed to those roots. Isolated vertices add nothing to a key."""
    moved = [(e, names[u], names[v]) for e, u, v in zip(zero, proj[::2], proj[1::2])]
    edges = [e if (u, v) == (e.u, e.v) else EdgeRecord(e.id, u, v, e.color, e.is_zero) for e, u, v in moved]
    return pivot_class_key(ColoredMultigraph(edges))


def _joined(part: tuple, a: int, b: int, ends: list) -> bool:
    """Whether the edges ``ends`` join the blocks of a and b, two blocks of the partition. The edges are joined
    one by one on a copy of it, found with path halving, up to the first that puts the two blocks together."""
    parent, a, b = list(part), part[a], part[b]  # each vertex already points at its block's root
    for u, v in ends:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            continue
        if u == a or u == b:  # a and b stay roots, so the edge that joins their blocks has them as its roots
            if v == a or v == b:
                return True
            u, v = v, u
        parent[u] = v
    return False


def universal_tutte_statesum(
    g: ColoredMultigraph,
    lab: Optional[ProperLabeling] = None,
    demotable: Iterable[str] = (),
) -> RelPolynomial:
    """State sum over all contracting sets; linear in the z-symbols.

    With ``demotable`` regular edges, the sum over every subset S of them of
    the state sum of g with S demoted to ``lambda0`` zero edges: a demotable
    edge also takes a third branch that keeps it in the minor as a zero edge.

    Maps the indices of the edges demoted so far to partitions (each index
    points at its block's least vertex) to {packed weight: (leaves, least
    branch path)}, edge by edge. Demote bits rank above delete bits in a
    path, so a monomial's key comes from the first subset in mask order that
    has it, as in a sum of the per-subset state sums. Each demoted subset keys
    its terminal graphs on their zero-edge projections."""
    order, names, zero, ends = _frame(g, lab or canonical_labeling(g))
    k = len(order)
    wanted = set(demotable)
    demote = {i for i, e in enumerate(order) if e.id in wanted}
    if len(demote) != len(wanted):
        raise NotRegular(f"edges {sorted(wanted - {e.id for e in order})} are not regular edges")
    unit, monomial = _packing(order)
    states = {(): {tuple(range(len(names))): {0: (1, 0)}}}
    for i, e in enumerate(order):
        delete_bit, nxt, demotes = 1 << (k - 1 - i), {}, i in demote
        steps = {kind: unit[kind, e.color] for kind in "XxyY"}
        for demoted, group in states.items():
            kept = nxt.setdefault(demoted, {})
            lowered = nxt.setdefault(demoted + (i,), {}) if demotes else None
            later = ends[i + 1 :] + [ends[j] for j in demoted]
            for part, weights in group.items():
                moves = _moves(part, ends[i], later)
                if demotes:
                    moves += ((part, None),)
                for target, kind in moves:
                    if kind is None:  # demoted: no weight, and a demote bit ranks above every delete bit
                        step, bit, out = 0, delete_bit << k, lowered.setdefault(part, {})
                    else:
                        step, bit = steps[kind], delete_bit if kind == "y" else 0
                        out = kept.setdefault(target, {})
                    for w, (count, path) in weights.items():
                        seen = out.get(w + step)
                        out[w + step] = (count, path | bit) if seen is None else (seen[0] + count, min(seen[1], path | bit))
        states = nxt
    leaves = []
    for demoted, group in states.items():
        dz = [EdgeRecord(order[j].id, order[j].u, order[j].v, RECOLOR_ZERO, True) for j in demoted]
        ends_z, keys = [v for uv in ends[k:] + [ends[j] for j in demoted] for v in uv], {}
        for part, weights in group.items():
            proj = tuple(part[v] for v in ends_z)
            if proj not in keys:
                keys[proj] = _terminal_key(proj, names, zero + dz)
            leaves += [(path, w, count, keys[proj]) for w, (count, path) in weights.items()]
    terms: dict = {}
    for _, w, count, key in sorted(leaves, key=lambda leaf: leaf[0]):
        m = monomial(w, key)
        terms[m] = terms.get(m, 0) + count
    return RelPolynomial(terms)


def tutte_recursive(g: ColoredMultigraph) -> RelPolynomial:
    """Deletion-contraction on the regular edge of largest id, top down: T = x·T(G/e) + y·T(G−e),
    X·T(G/e) for a bridge, Y·T(G−e) for a loop. A minor is a union-find of the vertices rooted at
    each block's least one, as ``contract`` names it, so contracting sets one parent and pushes its
    root on a trail. The bridge test joins the edges after i on a copy of the union-find, halving
    paths on the copy only, and stops at the first edge that joins the two blocks. A stack entry
    (i, w, t) is the minor at edge i, reached with the packed weight w (as in the state sum) and a
    trail of length t: popping it rolls the trail back to t, and a child carries its edge's unit in
    its weight. A leaf finds only its zero edges' ends and adds one count to its (zero-edge
    projection, weight); each projection's pivot key is computed once, and the counts merge by
    (weight, z-key) in leaf order.
    Matches the state sum under the canonical labeling term by term."""
    order, names, zero, ends = _frame(g, canonical_labeling(g))
    (unit, monomial), parent, trail, k = _packing(order), list(range(len(names))), [], len(order)
    high, index, keys, counts = (k + 1) ** len(unit), {}, [], {}  # high exceeds every packed weight
    ends_z, steps = [v for uv in ends[k:] for v in uv], [[unit[s, e.color] for s in "XxyY"] for e in order]

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    stack = [(0, 0, 0)]
    while stack:
        i, w, t = stack.pop()
        while len(trail) > t:  # undo the contractions below the popped minor
            b = trail.pop()
            parent[b] = b
        if i == k:
            proj = tuple(map(find, ends_z))
            if proj not in index:
                index[proj] = len(keys)
                keys.append(_terminal_key(proj, names, zero))
            leaf = index[proj] * high + w
            counts[leaf] = counts.get(leaf, 0) + 1
            continue
        a, b = ends[i]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        X, x, y, Y = steps[i]
        if a == b:
            stack.append((i + 1, w + Y, t))
            continue
        if a > b:
            a, b = b, a
        rest = parent[:]  # the blocks, joined by the edges after i until a and b meet
        for u, v in ends[i + 1 :]:
            while rest[u] != u:
                rest[u] = u = rest[rest[u]]
            while rest[v] != v:
                rest[v] = v = rest[rest[v]]
            if u == v:
                continue
            if u == a or u == b:  # a and b stay roots, so the edge that joins their blocks has them as its roots
                if v == a or v == b:  # contracted first, then deleted
                    stack += [(i + 1, w + y, t), (i + 1, w + x, t + 1)]
                    break
                u, v = v, u
            rest[u] = v
        else:
            stack.append((i + 1, w + X, t + 1))
        parent[b] = a
        trail.append(b)
    terms: dict = {}  # the first leaf of a (weight, z-key) keeps its place and its key object
    for leaf, n in counts.items():
        term = leaf % high, keys[leaf // high]
        terms[term] = terms.get(term, 0) + n
    return RelPolynomial({monomial(w, key): n for (w, key), n in terms.items()})
