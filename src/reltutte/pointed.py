"""Pointed relative Tutte polynomials of a graph with one distinguished edge.

The distinguished edge is a zero edge of every walk (``regular_ids`` leaves it
out), so the universal polynomial of a pointed graph sums over the contracting
sets with it as an honorary zero edge. Each contracting set is classified by
whether the pointed edge ends up a loop (its contracting side closes a cycle
through it), a bridge (its deleting side cuts through it), or neither (a
zero-edge path keeps its endpoints connected). Projecting the universal
polynomial onto those three classes and correcting the plain
contraction/deletion polynomials by the "neither" class yields the five
pointed polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoPointedEdge, NotLinearInZ, PointedIsLoopOrBridge
from .graph import (
    ColoredMultigraph,
    PivotClassKey,
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


def _map_z_linear(p: RelPolynomial, fn) -> RelPolynomial:
    """Apply key -> new key, or None to drop the monomial, to a z-linear polynomial, read unsorted."""
    parts = []
    for (vars_, zs), coeff in p._terms.items():
        if len(zs) != 1:
            raise NotLinearInZ("operation requires exactly one z-symbol per monomial")
        new_key = fn(zs[0])
        if new_key is None:
            continue
        parts.append(RelPolynomial.monomial(coeff, vars_, (new_key,)))
    return RelPolynomial.sum(parts)


def pi_C(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose class has exactly one pointed edge and it is a bridge."""
    return _map_z_linear(p, lambda k: k if k.pointed_status() == "bridge" else None)


def pi_L(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose class has exactly one pointed edge and it is a loop."""
    return _map_z_linear(p, lambda k: k if k.pointed_status() == "loop" else None)


def pi_0(p: RelPolynomial) -> RelPolynomial:
    """Keep monomials whose pointed edge is neither loop nor bridge."""
    return _map_z_linear(p, lambda k: k if k.pointed_status() == "inner" else None)


def pi_contract(p: RelPolynomial) -> RelPolynomial:
    """Contract the unique pointed edge inside each class; drop loop classes."""

    def act(key: PivotClassKey):
        if key.pointed_status() in (None, "loop"):
            return None
        return pivot_class_key(contract(key.representative, key.representative.pointed_edge().id))

    return _map_z_linear(p, act)


def pi_delete(p: RelPolynomial) -> RelPolynomial:
    """Delete the unique pointed edge inside each class; drop bridge classes."""

    def act(key: PivotClassKey):
        if key.pointed_status() in (None, "bridge"):
            return None
        return pivot_class_key(delete(key.representative, key.representative.pointed_edge().id))

    return _map_z_linear(p, act)


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
        tc = pi_contract(pi_C(u))
        tl = pi_delete(pi_L(u))
        tslash = universal_tutte_statesum(pg.contracted()) - pi_contract(t0)
        tminus = universal_tutte_statesum(pg.deleted()) - pi_delete(t0)
        pg._polys = PointedPolynomials(tc=tc, tl=tl, t0=t0, tslash=tslash, tminus=tminus)
    return pg._polys


def universal_with_pointed_zero(pg: PointedGraph) -> RelPolynomial:
    """The graph's universal polynomial, its pointed edge a zero edge as in every walk; computed once per graph."""
    if pg._universal is None:
        pg._universal = universal_tutte_statesum(pg.graph)
    return pg._universal
