"""Pointed relative Tutte polynomials of a graph with one distinguished edge.

The distinguished edge is the one edge of color ``nu``; the color alone marks
it. It is a zero edge of every walk (``regular_ids`` leaves it out), so the
universal polynomial of a pointed graph sums over the contracting sets with it
as an honorary zero edge. Each contracting set is classified by whether the
pointed edge ends up a loop (its contracting side closes a cycle through it),
a bridge (its deleting side cuts through it), or neither (a zero-edge path
keeps its endpoints connected). Projecting the universal polynomial onto those
three classes in one pass (``_project``) and correcting the plain
contraction/deletion polynomials by the "neither" class yields the five
pointed polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoPointedEdge, NotLinearInZ, PointedIsLoopOrBridge
from .graph import (
    EMPTY_KEY,
    ColoredMultigraph,
    contract,
    delete,
    is_bridge,
    is_connected,
    pivot_class_key,
    union_find,
)
from .poly import RelPolynomial
from .tutte import ContractingSet, universal_tutte_statesum, validate_contracting_set

TYPE_C = "C"
TYPE_D = "D"
TYPE_ZERO = "zero"


class PointedGraph:
    """A connected graph with one pointed edge that is neither loop nor bridge."""

    def __init__(self, graph: ColoredMultigraph):
        e = graph.pointed_edge()
        if e is None:
            raise NoPointedEdge("graph has no pointed edge")
        if e.is_loop or is_bridge(graph, e.id):
            raise PointedIsLoopOrBridge(f"pointed edge {e.id!r} is a loop or a bridge")
        if not is_connected(graph):
            raise NoPointedEdge("pointed graphs must be connected")
        self.graph = graph
        self.pointed_id = e.id
        # computed on first use and kept for the life of this pointed graph
        self._universal: RelPolynomial | None = None
        self._polys: PointedPolynomials | None = None

    def contracted(self) -> ColoredMultigraph:
        return contract(self.graph, self.pointed_id)

    def deleted(self) -> ColoredMultigraph:
        return delete(self.graph, self.pointed_id)

    def __repr__(self):
        return f"PointedGraph(pointed={self.pointed_id!r}, {self.graph!r})"


def classify_pair(pg: PointedGraph, cs: ContractingSet) -> str:
    """Type of a contracting set taken with the pointed edge as a zero edge.

    Type C: the contracting side plus the pointed edge contains a cycle.
    Type D: the deleting side plus the pointed edge contains a cocycle.
    Type zero: neither.
    """
    validate_contracting_set(pg.graph, cs)
    return _classify(pg, cs)


def _classify(pg: PointedGraph, cs: ContractingSet) -> str:
    """``classify_pair`` for a set known to be a contracting set."""
    g = pg.graph
    e = g.edge(pg.pointed_id)
    find, _ = union_find(g, cs.contracting)
    if find(e.u) == find(e.v):
        return TYPE_C
    # D is cocycle-free, so D + e has a cocycle exactly when e is a bridge of E - D
    removed = cs.deleting | {e.id}
    find, _ = union_find(g, (f.id for f in g.edges if f.id not in removed))
    if find(e.u) != find(e.v):
        return TYPE_D
    return TYPE_ZERO


def _project(p: RelPolynomial, keep: tuple[str, ...], op=None) -> RelPolynomial:
    """Keep the terms of a z-linear p, read unsorted, whose class's pointed status is in keep; op (contract
    or delete), if given, acts on the pointed edge of each kept class. Terms add up as in RelPolynomial.sum."""
    acc: dict = {}
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) != 1:
            raise NotLinearInZ("operation requires exactly one z-symbol per monomial")
        key = zs[0]
        if key.pointed_status() not in keep:
            continue
        if op is not None:
            rep = key.representative
            key = pivot_class_key(op(rep, rep.pointed_edge().id))
        m = (vars_, (key if key.codes else EMPTY_KEY,))
        coeff += acc.get(m, 0)
        if coeff:
            acc[m] = coeff
        else:
            del acc[m]
    return RelPolynomial(acc)


def pi_C(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose class has exactly one pointed edge and it is a bridge."""
    return _project(p, ("bridge",))


def pi_L(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose class has exactly one pointed edge and it is a loop."""
    return _project(p, ("loop",))


def pi_0(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose pointed edge is neither loop nor bridge."""
    return _project(p, ("inner",))


def pi_contract(p: RelPolynomial) -> RelPolynomial:
    """Contract the unique pointed edge inside each class; drop loop classes."""
    return _project(p, ("bridge", "inner"), contract)


def pi_delete(p: RelPolynomial) -> RelPolynomial:
    """Delete the unique pointed edge inside each class; drop bridge classes."""
    return _project(p, ("loop", "inner"), delete)


@dataclass(frozen=True)
class PointedPolynomials:
    """The five pointed universal relative Tutte polynomials."""

    tc: RelPolynomial
    tl: RelPolynomial
    t0: RelPolynomial
    tslash: RelPolynomial
    tminus: RelPolynomial

    def as_dict(self) -> dict[str, RelPolynomial]:
        return {"T_C": self.tc, "T_L": self.tl, "T_0": self.t0, "T_/": self.tslash, "T_-": self.tminus}


def pointed_polys(pg: PointedGraph) -> PointedPolynomials:
    """All five pointed polynomials of a pointed graph, computed once per graph."""
    if pg._polys is None:
        u = universal_with_pointed_zero(pg)
        t0 = pi_0(u)
        tc = _project(u, ("bridge",), contract)
        tl = _project(u, ("loop",), delete)
        tslash = universal_tutte_statesum(pg.contracted()) - pi_contract(t0)
        tminus = universal_tutte_statesum(pg.deleted()) - pi_delete(t0)
        pg._polys = PointedPolynomials(tc=tc, tl=tl, t0=t0, tslash=tslash, tminus=tminus)
    return pg._polys


def universal_with_pointed_zero(pg: PointedGraph) -> RelPolynomial:
    """The graph's universal polynomial, its pointed edge a zero edge as in every walk; computed once per graph."""
    if pg._universal is None:
        pg._universal = universal_tutte_statesum(pg.graph)
    return pg._universal
