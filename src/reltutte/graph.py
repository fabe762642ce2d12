"""Colored multigraphs and their structural operations.

Graphs are immutable values: every operation returns a fresh graph. Edges
carry stable string ids, a color token, and a zero flag. Parallel edges and
loops are permitted throughout.

Color discipline: within one graph a color is used either only on zero edges
or only on regular edges, and the reserved color ``lambda0`` is always a zero
color. The pointed edge is the one edge of the reserved color ``nu``, which
alone marks it. It carries no zero flag, yet it is a zero edge of every walk:
``zero_ids`` holds it and ``regular_ids`` leaves it out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from typing import Callable, Iterable, Optional

from .errors import ColorClash, ContractLoop, EngineError, LoopTwoSum, MixedColors, NotRegular, UnknownEdge

#: Reserved color of the single distinguished (pointed) edge.
POINTED_COLOR = "nu"
#: Reserved zero color given to regular edges demoted by recolor_subset.
RECOLOR_ZERO = "lambda0"

#: A color token, matched whole with ``fullmatch``.
COLOR_RE = re.compile(r"[A-Za-z0-9_]+")
#: An edge id or vertex name, matched whole with ``fullmatch``.
ID_RE = re.compile(r"[A-Za-z0-9_.+~/'-]+")


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: endpoints may coincide (a loop). It is pointed exactly when its color is ``nu``."""

    id: str
    u: str
    v: str
    color: str
    is_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "u", str(self.u))
        object.__setattr__(self, "v", str(self.v))
        for tok in (self.id, self.u, self.v):
            if not ID_RE.fullmatch(tok):
                raise EngineError(f"bad identifier {tok!r}")
        if not COLOR_RE.fullmatch(self.color):
            raise EngineError(f"bad color token {self.color!r}")
        if self.is_zero and self.is_pointed:
            raise ColorClash(f"edge {self.id}: color {POINTED_COLOR!r} marks the pointed edge, never a zero edge")

    @property
    def is_pointed(self) -> bool:
        return self.color == POINTED_COLOR

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def endpoints(self) -> tuple[str, str]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class ColoredMultigraph:
    """Immutable colored multigraph with stable edge ids."""

    __slots__ = ("_edges", "_vertices")

    def __init__(self, edges: Iterable[EdgeRecord] = (), extra_vertices: Iterable = ()):
        recs = sorted(edges, key=lambda e: e.id)
        emap: dict[str, EdgeRecord] = {}
        for e in recs:
            if e.id in emap:
                raise EngineError(f"duplicate edge id {e.id!r}")
            emap[e.id] = e
        vs = {str(v) for v in extra_vertices}
        for e in recs:
            vs.add(e.u)
            vs.add(e.v)
        self._edges = emap
        self._vertices = frozenset(vs)
        self._validate()

    def _validate(self):
        zero_colors, regular_colors = set(), set()
        if sum(e.is_pointed for e in self._edges.values()) > 1:
            raise EngineError("more than one pointed edge")
        for e in self._edges.values():
            if e.color == RECOLOR_ZERO and not e.is_zero:
                raise ColorClash(f"edge {e.id}: color {RECOLOR_ZERO!r} is reserved for zero edges")
            (zero_colors if e.is_zero else regular_colors).add(e.color)
        clash = zero_colors & regular_colors
        if clash:
            raise ColorClash(f"colors used both as zero and regular: {sorted(clash)}")

    # -- accessors ------------------------------------------------------------

    @property
    def vertex_set(self) -> frozenset:
        return self._vertices

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        return tuple(self._edges.values())

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._edges)

    def edge(self, eid: str) -> EdgeRecord:
        try:
            return self._edges[str(eid)]
        except KeyError:
            raise UnknownEdge(f"no edge with id {eid!r}") from None

    def has_edge(self, eid: str) -> bool:
        return str(eid) in self._edges

    def regular_ids(self) -> tuple[str, ...]:
        """The regular edges, which a walk weights: all but the zero edges and the pointed edge."""
        return tuple(e.id for e in self._edges.values() if not (e.is_zero or e.is_pointed))

    def zero_ids(self) -> tuple[str, ...]:
        """The zero edges of a walk: the zero-flagged edges and the pointed edge."""
        return tuple(e.id for e in self._edges.values() if e.is_zero or e.is_pointed)

    def pointed_edge(self) -> Optional[EdgeRecord]:
        for e in self._edges.values():
            if e.is_pointed:
                return e
        return None

    def regular_colors(self) -> tuple[str, ...]:
        return tuple(sorted({self._edges[eid].color for eid in self.regular_ids()}))

    def zero_colors(self) -> tuple[str, ...]:
        """The colors of the zero-flagged edges: the pointed edge's ``nu`` is never one."""
        return tuple(sorted({e.color for e in self._edges.values() if e.is_zero}))

    def __eq__(self, other):
        if not isinstance(other, ColoredMultigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, frozenset(self._edges.values())))

    def __repr__(self):
        return f"ColoredMultigraph({len(self._vertices)} vertices, {len(self._edges)} edges)"


def single_vertex(name: str = "0") -> ColoredMultigraph:
    return ColoredMultigraph((), extra_vertices=(name,))


# -- connectivity --------------------------------------------------------------


def union_find(g: ColoredMultigraph, ids: Iterable[str]) -> tuple[Callable[[str], str], list[str]]:
    """Merge the endpoints of the edges ids of g, in sorted id order.

    Returns the root lookup and the ids, in that order, whose endpoints were
    already joined when they came up: the edges that close a cycle.
    """
    parent: dict[str, str] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    closing = []
    for eid in sorted(ids):
        e = g.edge(eid)
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            closing.append(eid)
        else:
            parent[ru] = rv
    return find, closing


def rank(g: ColoredMultigraph, ids: Iterable[str]) -> int:
    """Graphic rank of the edges ids: |V| minus the components of (V, ids)."""
    ids = list(ids)
    return len(ids) - len(union_find(g, ids)[1])


def components(g: ColoredMultigraph) -> list[frozenset]:
    """Vertex sets of the connected components, ordered by least vertex."""
    find, _ = union_find(g, g.edge_ids())
    groups: dict[str, set] = {}
    for v in sorted(g.vertex_set):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(c) for c in groups.values()]


def is_connected(g: ColoredMultigraph) -> bool:
    return len(g.vertex_set) - rank(g, g.edge_ids()) <= 1


def contract(g: ColoredMultigraph, eid: str) -> ColoredMultigraph:
    """Merge the endpoints of a non-loop edge; the smaller vertex id survives."""
    e = g.edge(eid)
    if e.is_loop:
        raise ContractLoop(f"cannot contract loop {eid!r}")
    keep, gone = sorted((e.u, e.v))
    edges = []
    for f in g.edges:
        if f.id == e.id:
            continue
        u = keep if f.u == gone else f.u
        v = keep if f.v == gone else f.v
        edges.append(EdgeRecord(f.id, u, v, f.color, f.is_zero) if (u, v) != (f.u, f.v) else f)
    return ColoredMultigraph(edges, extra_vertices=g.vertex_set - {gone})


def delete(g: ColoredMultigraph, eid: str) -> ColoredMultigraph:
    """Remove an edge, keeping both endpoints (possibly now isolated)."""
    e = g.edge(eid)
    edges = [f for f in g.edges if f.id != e.id]
    return ColoredMultigraph(edges, extra_vertices=g.vertex_set)


def is_bridge(g: ColoredMultigraph, eid: str) -> bool:
    """Whether the other edges leave the endpoints of eid apart (never for a loop)."""
    e = g.edge(eid)
    find, _ = union_find(g, (f for f in g.edge_ids() if f != e.id))
    return find(e.u) != find(e.v)


# -- blocks ---------------------------------------------------------------------


def blocks(g: ColoredMultigraph) -> list[tuple[EdgeRecord, ...]]:
    """Biconnected components as edge tuples; every edge lands in exactly one block.

    A block is a maximal 2-connected subgraph, a single bridge, or a single
    loop, given as its edge records sorted by id. Blocks are ordered by their
    least edge id. Isolated vertices produce no block.
    """
    out = [(e,) for e in g.edges if e.is_loop]
    adj: dict[str, list[tuple[str, EdgeRecord]]] = {v: [] for v in g.vertex_set}
    for e in g.edges:
        if e.is_loop:
            continue
        adj[e.u].append((e.v, e))
        adj[e.v].append((e.u, e))

    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    timer = count()
    stack: list[EdgeRecord] = []

    def dfs(root):
        # iterative DFS so deep paths cannot overflow the recursion limit
        work = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = next(timer)
        while work:
            v, in_edge, it = work[-1]
            advanced = False
            for w, e in it:
                if e is in_edge:
                    continue
                if w not in disc:
                    stack.append(e)
                    disc[w] = low[w] = next(timer)
                    work.append((w, e, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    stack.append(e)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    grp = []
                    while True:
                        e = stack.pop()
                        grp.append(e)
                        if e is in_edge:
                            break
                    out.append(tuple(sorted(grp, key=lambda f: f.id)))

    for v in sorted(g.vertex_set):
        if v not in disc:
            dfs(v)

    out.sort(key=lambda b: b[0].id)
    return out


# -- canonical codes --------------------------------------------------------------


def _twin_classes(loops, pc):
    """Map each vertex to the least vertex of its twin class.

    Vertices v and w are twins when swapping them is an automorphism: equal
    loop ranks and equal ranks towards every third vertex. All pairs in a twin
    class share one rank c, so v and w are twins with rank c exactly when
    their rows agree once the diagonal of each holds c.
    """
    rep = list(range(len(loops)))
    for c in {r for row in pc for r in row}:
        first = {}
        for v, row in enumerate(pc):
            row = row[:]
            row[v] = c
            r = first.setdefault((loops[v], tuple(row)), v)
            if r != v:
                rep[v] = r
    return rep


def _colour_count(masks, cand):
    """Colour classes of a greedy sequential colouring of the bitmask cand.

    Each class is an independent set, so the count is at least the size of
    any clique inside cand.
    """
    colours = 0
    while cand:
        colours += 1
        free = cand
        while free:
            v = free.bit_length() - 1
            free &= ~(masks[v] | 1 << v)
            cand &= ~(1 << v)
    return colours


def _maximum_cliques(masks, cand):
    """Every maximum clique inside the bitmask cand; masks[v] holds v's neighbours."""
    best, found = 0, []
    # depth-first, each clique grown in decreasing vertex order so it is met once;
    # a branch is cut only when it cannot reach best, so every maximum clique stays
    stack = [((), cand)]
    while stack:
        clique, cand = stack[-1]
        need = best - len(clique)
        # one colour is never short of need <= 1, so the colouring can wait
        if not cand or cand.bit_count() < need or (need > 1 and _colour_count(masks, cand) < need):
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


def _joins(cells, w, loops, pc):
    """Whether w may join the last cell: every order within it gives equal rows."""
    last = cells[-1]
    x = last[0]
    px, pw = pc[x], pc[w]
    if loops[w] != loops[x] or (len(last) > 1 and pw[x] != px[last[1]]):
        return False
    return all(pw[cell[0]] == px[cell[0]] for cell in cells[:-1])


def _canonical_order(loops, pc):
    """Vertex ordering whose rows form the least row sequence.

    Vertices are 0..n-1. ``loops[v]`` ranks the sorted loop colors at v and
    ``pc[v][w]`` the sorted edge colors between v and w, with ``()`` ranked 0.
    Row k of an ordering is ``(loops[v_k], pc[v_k][v_0], ..., pc[v_k][v_{k-1}])``
    and the encoding is the least sequence of rows over all orderings,
    compared row by row. The rows fix every atom, so any minimizing ordering
    yields the same canonical code.

    Finding the encoding is NP-hard in general: rank 0 sorts first, so for a
    simple graph with one edge color the least rows open with a maximum
    independent set. The search goes level by level and keeps every prefix
    whose rows tie with the least so far, as an unpruned beam would, but
    holds those prefixes compactly and drops the ones it does not need:

    - A state is a sequence of cells. Any order inside each cell gives the
      same rows so far, and the state stands for all those prefixes. Adding
      w splits each cell by ``pc[w]``, lowest rank first: these are exactly
      the orders that give w its least row. w then joins the last cell when
      the result keeps that property, else opens a cell of its own.
    - The first rows are ``(low,)``, ``(low, c0)``, ``(low, c0, c0)``, ...
      where ``low`` is the least loop rank and ``c0`` the least rank between
      two vertices with loop rank ``low``: the prefixes are the cliques of the
      graph joining such vertices at rank ``c0``. So the beam starts from the
      maximum cliques, each as one cell, found by a clique search.
    - Twins are never both tried as the next vertex: swapping them is an
      automorphism that fixes the prefix, so it maps the futures of one
      onto the futures of the other. For the same reason a maximum clique
      holds only the least vertex of a twin class whose members are not
      adjacent at rank ``c0``.

    None of this changes the least rows, so the codes equal those of the
    unpruned beam. Beams still grow where the symmetry is not a twin swap,
    as in long cycles or in triangles sharing one vertex.
    """
    n = len(loops)
    if not n:
        return []
    rep = _twin_classes(loops, pc)
    low = min(loops)
    first = [v for v in range(n) if loops[v] == low]
    c0 = min((pc[u][v] for u in first for v in first if u < v), default=0)
    masks = [0] * n
    for u in first:
        for v in first:
            if u != v and pc[u][v] == c0:
                masks[u] |= 1 << v
    cand = sum(1 << v for v in first if rep[v] == v or pc[v][rep[v]] == c0)
    beam = []
    for clique in _maximum_cliques(masks, cand):
        cell = tuple(sorted(clique))
        beam.append(((cell,), tuple(v for v in range(n) if v not in cell)))
    for _ in range(n - len(beam[0][0][0])):
        best = None
        ties = []
        for cells, rem in beam:
            tried = set()
            for w in rem:
                if rep[w] in tried:
                    continue
                tried.add(rep[w])
                pw = pc[w]
                row = [loops[w]]
                for cell in cells:
                    if len(cell) == 1:
                        row.append(pw[cell[0]])
                    else:
                        row += sorted([pw[x] for x in cell])
                if best is None or row < best:
                    best = row
                    ties = [(cells, rem, w)]
                elif row == best:
                    ties.append((cells, rem, w))
        nxt = {}
        for cells, rem, w in ties:
            pw = pc[w]
            split = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                parts = {}
                for x in cell:
                    parts.setdefault(pw[x], []).append(x)
                split.extend(tuple(parts[r]) for r in sorted(parts))
            if _joins(split, w, loops, pc):
                split[-1] = tuple(sorted(split[-1] + (w,)))
            else:
                split.append((w,))
            key = tuple(split)
            if key not in nxt:
                nxt[key] = tuple(x for x in rem if x != w)
        beam = list(nxt.items())
    return [x for cell in beam[0][0] for x in cell]


@lru_cache(maxsize=200000)
def _canonical_atoms_cached(n_vertices: int, sig: tuple) -> tuple:
    index: dict = {}
    for u, v, _ in sig:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    loop_lists: list = [[] for _ in range(n_vertices)]
    pair_lists: dict = {}
    for u, v, c in sig:
        i, j = index[u], index[v]
        if i == j:
            loop_lists[i].append(c)
        else:
            pair_lists.setdefault((i, j) if i < j else (j, i), []).append(c)
    loop_colors = [tuple(sorted(cs)) for cs in loop_lists]
    pair_colors = {ij: tuple(sorted(cs)) for ij, cs in pair_lists.items()}
    rank = {cs: r for r, cs in enumerate(sorted({()}.union(loop_colors, pair_colors.values())))}
    pc = [[0] * n_vertices for _ in range(n_vertices)]
    for (i, j), cs in pair_colors.items():
        pc[i][j] = pc[j][i] = rank[cs]
    order = _canonical_order([rank[cs] for cs in loop_colors], pc)
    pos = [0] * n_vertices
    for k, v in enumerate(order):
        pos[v] = k
    atoms = []
    for u, v, c in sig:
        i, j = pos[index[u]], pos[index[v]]
        atoms.append((i, j, c) if i <= j else (j, i, c))
    return tuple(sorted(atoms))


def canonical_atoms(edges: Iterable[EdgeRecord], n_vertices: int) -> tuple:
    """Edges of a graph on n_vertices vertices rewritten over a canonical labeling 0..n-1.

    Two graphs get equal atom tuples (paired with their vertex counts) iff
    they are isomorphic as colored multigraphs. The zero flag is not encoded:
    under the color discipline a color is zero on every edge or on none, and
    the pointed edge is the edge of color ``nu``.
    """
    sig = tuple(sorted(e.endpoints() + (e.color,) for e in edges))
    return _canonical_atoms_cached(n_vertices, sig)


def block_code(b: tuple[EdgeRecord, ...]) -> str:
    """Canonical printable code of a single block, given as its edge tuple."""
    if len(b) == 1:
        e = b[0]
        return f"loop({e.color})" if e.is_loop else f"bridge({e.color})"
    n = len({x for e in b for x in (e.u, e.v)})
    if len(b) == 2 and n == 2:
        c1, c2 = sorted(e.color for e in b)
        return f"cycle2({c1},{c2})"
    body = ",".join(f"{i}-{j}:{c}" for i, j, c in canonical_atoms(b, n))
    return f"b{n}({body})"


@dataclass(frozen=True)
class PivotClassKey:
    """Vertex-pivot equivalence class of a graph, as its multiset of block codes.

    Equality and hashing use the codes only; the stored representative graph
    realizes the class and is what contraction/deletion/2-sum operators act on.
    """

    codes: tuple[str, ...]
    representative: ColoredMultigraph = field(compare=False, hash=False)

    def pointed_status(self) -> Optional[str]:
        """'bridge', 'loop' or 'inner' when the class has a pointed edge, None when it has none."""
        if self.representative.pointed_edge() is None:
            return None
        if f"bridge({POINTED_COLOR})" in self.codes:
            return "bridge"
        if f"loop({POINTED_COLOR})" in self.codes:
            return "loop"
        return "inner"

    def render(self) -> str:
        return "z{%s}" % ",".join(self.codes)

    def __repr__(self):
        return self.render()


def pivot_class_key(g: ColoredMultigraph) -> PivotClassKey:
    """Canonical pivot-class key from the edge tuples of g's blocks; isolated vertices contribute nothing."""
    codes = tuple(sorted(block_code(b) for b in blocks(g)))
    edges = g.edges
    if not edges:
        return PivotClassKey(codes, single_vertex())
    isolated = g.vertex_set - {x for e in edges for x in (e.u, e.v)}
    return PivotClassKey(codes, ColoredMultigraph(edges) if isolated else g)


EMPTY_KEY = pivot_class_key(single_vertex())


# -- splice, two-sum --------------------------------------------------------


def splice_all(graphs: Iterable[ColoredMultigraph]) -> ColoredMultigraph:
    """Connect all components of all inputs by repeatedly identifying vertices.

    The result is well defined up to vertex pivots, so only its pivot-class
    key is contractually meaningful. An empty input yields a single vertex.
    """
    comps: list[tuple[str, ColoredMultigraph, frozenset]] = []
    for i, g in enumerate(graphs):
        for comp in components(g):
            comps.append((f"s{i}.", g, comp))
    if not comps:
        return single_vertex()
    anchor = None
    edges = []
    vertices = set()
    for prefix, g, comp in comps:
        local = prefix + min(comp)
        if anchor is None:
            anchor = local

        def rename(v, prefix=prefix, local=local):
            pv = prefix + v
            return anchor if pv == local else pv

        for v in comp:
            vertices.add(rename(v))
        for e in g.edges:
            if e.u in comp:
                edges.append(EdgeRecord(prefix + e.id, rename(e.u), rename(e.v), e.color, e.is_zero))
    return ColoredMultigraph(edges, extra_vertices=vertices)


def _glue_along_edge(
    base: ColoredMultigraph,
    base_edge: str,
    patch: ColoredMultigraph,
    patch_edge: str,
    prefix: str,
    flip: bool = False,
) -> ColoredMultigraph:
    """Identify the endpoints of base_edge with those of patch_edge, drop both.

    Endpoints are matched in ascending vertex-id order on both sides unless
    ``flip`` reverses the base side. The base edge may be a loop: both patch
    endpoints then collapse onto the loop's vertex. The patch edge must not be
    a loop. The patch's other ids get ``prefix``, lengthened by ``+`` until
    it collides with no id of the base.
    """
    be = base.edge(base_edge)
    pe = patch.edge(patch_edge)
    if pe.is_loop:
        raise LoopTwoSum(f"patch edge {patch_edge!r} is a loop")
    b1, b2 = be.endpoints()
    p1, p2 = pe.endpoints()
    if flip:
        b1, b2 = b2, b1
    target = {p1: b1, p2: b2}
    while any((prefix + v) in base.vertex_set for v in patch.vertex_set) or any(
        base.has_edge(prefix + e.id) for e in patch.edges
    ):
        prefix += "+"

    def rename(v):
        return target.get(v, prefix + v)

    edges = [f for f in base.edges if f.id != be.id]
    for f in patch.edges:
        if f.id == pe.id:
            continue
        edges.append(EdgeRecord(prefix + f.id, rename(f.u), rename(f.v), f.color, f.is_zero))
    vertices = set(base.vertex_set) | {rename(v) for v in patch.vertex_set}
    return ColoredMultigraph(edges, extra_vertices=vertices)


def recolor_subset(g: ColoredMultigraph, s: Iterable[str], new_color: str) -> ColoredMultigraph:
    """Demote a same-colored set of regular edges to zero edges of new_color."""
    ids = {str(x) for x in s}
    if not ids:
        return g
    regular, colors = set(g.regular_ids()), set()
    for eid in sorted(ids):
        e = g.edge(eid)
        if eid not in regular:
            raise NotRegular(f"edge {eid!r} is not a regular edge")
        colors.add(e.color)
    if len(colors) > 1:
        raise MixedColors(f"edges span colors {sorted(colors)}")
    edges = []
    for e in g.edges:
        if e.id in ids:
            edges.append(EdgeRecord(e.id, e.u, e.v, new_color, True))
        else:
            edges.append(e)
    return ColoredMultigraph(edges, extra_vertices=g.vertex_set)
