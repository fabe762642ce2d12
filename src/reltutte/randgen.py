"""Seeded random graphs and tensor instances for the verification suites.

All generation goes through ``random.Random`` (Mersenne Twister) seeded
explicitly; instance k of a run with seed s uses the derived seed
``s * 1_000_003 + k`` so suites are reproducible and parallelizable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EngineError
from .graph import ColoredMultigraph, EdgeRecord, is_bridge, is_connected
from .pointed import PointedGraph
from .tensor import TensorInstance
from .tutte import ProperLabeling

REGULAR_PALETTE = ("mu", "rho", "tau")
ZERO_PALETTE = ("z0", "z1")


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Size knobs for random generation; ranges are inclusive."""

    vertices: tuple[int, int] = (2, 5)
    regular_edges: tuple[int, int] = (1, 6)
    zero_edges: tuple[int, int] = (0, 2)
    colors: int = 2
    connected: bool = True


def derived_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def random_graph(rng: random.Random, spec: RandomInstanceSpec) -> ColoredMultigraph:
    """Random colored multigraph within the given size knobs (rejection sampling)."""
    for _ in range(10000):
        n = rng.randint(*spec.vertices)
        m = rng.randint(*spec.regular_edges)
        h = rng.randint(*spec.zero_edges)
        verts = [str(i) for i in range(n)]
        edges = []
        for i in range(m + h):
            u = rng.choice(verts)
            if rng.random() < 0.1:
                v = u
            else:
                v = rng.choice(verts)
            zero = i >= m
            color = ZERO_PALETTE[rng.randrange(min(spec.colors, len(ZERO_PALETTE)))] if zero else \
                REGULAR_PALETTE[rng.randrange(min(spec.colors, len(REGULAR_PALETTE)))]
            prefix = "h" if zero else "e"
            edges.append(EdgeRecord(f"{prefix}{i}", u, v, color, zero))
        g = ColoredMultigraph(edges, extra_vertices=verts)
        if not spec.connected or is_connected(g):
            return g
    raise RuntimeError("rejection sampling failed to produce a graph")


def random_graph_with_zero_edges(rng: random.Random, max_edges: int = 8) -> ColoredMultigraph:
    spec = RandomInstanceSpec(
        vertices=(2, 5),
        regular_edges=(1, max(1, max_edges - 1)),
        zero_edges=(1, 2),
        colors=2,
    )
    for _ in range(10000):
        g = random_graph(rng, spec)
        if len(g.edges) <= max_edges:
            return g
    raise RuntimeError("rejection sampling failed")


def random_proper_labeling(rng: random.Random, g: ColoredMultigraph) -> ProperLabeling:
    regular = list(g.regular_ids())
    labels = {eid: 0 for eid in g.zero_ids()}
    values = rng.sample(range(1, 10 * len(regular) + 2), len(regular)) if regular else []
    for eid, val in zip(regular, values):
        labels[eid] = val
    return ProperLabeling(labels)


def random_pointed_graph(
    rng: random.Random,
    max_regular: int = 4,
    zero_edges: tuple[int, int] = (0, 2),
) -> PointedGraph:
    """Random connected pointed graph whose pointed edge is neither loop nor bridge."""
    spec = RandomInstanceSpec(
        vertices=(2, 4),
        regular_edges=(1, max_regular + 1),
        zero_edges=zero_edges,
    )
    for _ in range(10000):
        g = random_graph(rng, spec)
        cands = [
            eid for eid in g.regular_ids()
            if not g.edge(eid).is_loop and not is_bridge(g, eid)
        ]
        if not cands:
            continue
        eid = rng.choice(sorted(cands))
        e = g.edge(eid)
        edges = [f for f in g.edges if f.id != eid]
        edges.append(EdgeRecord("ep", e.u, e.v, "nu"))
        g2 = ColoredMultigraph(edges, extra_vertices=g.vertex_set)
        if len(g2.regular_ids()) <= max_regular:
            return PointedGraph(g2)
    raise RuntimeError("rejection sampling failed to produce a pointed graph")


def random_tensor_instance(
    rng: random.Random,
    g1_regular: int = 5,
    g1_lambda: tuple[int, int] = (1, 3),
    g2_regular: int = 4,
    g1_zero: tuple[int, int] = (1, 2),
    g2_zero: tuple[int, int] = (1, 2),
) -> TensorInstance:
    """Random valid tensor instance; the replaced color is ``lam``."""
    for _ in range(10000):
        k = rng.randint(*g1_lambda)
        other = rng.randint(0, max(0, g1_regular - k))
        spec = RandomInstanceSpec(
            vertices=(2, 4),
            regular_edges=(k + other, k + other),
            zero_edges=g1_zero,
            colors=1,
        )
        g1 = random_graph(rng, spec)  # exactly k + other regular edges
        lam_ids = set(rng.sample(sorted(g1.regular_ids()), k))
        edges = []
        for e in g1.edges:
            if e.id in lam_ids:
                edges.append(EdgeRecord(e.id, e.u, e.v, "lam"))
            else:
                edges.append(e)
        g1 = ColoredMultigraph(edges, extra_vertices=g1.vertex_set)
        try:
            g2 = random_pointed_graph(rng, max_regular=g2_regular, zero_edges=g2_zero)
            return TensorInstance(g1=g1, g2=g2, lam="lam")
        except EngineError:  # a rejected draw
            continue
    raise RuntimeError("rejection sampling failed to produce a tensor instance")
