"""The four workloads: seeded inputs, the engine calls of one instance, and output checks.

Each workload has ``setup(seed, size)``, which generates and parses the inputs
and returns a list of instances, and ``run(instance)``, which makes the engine
calls for one instance and returns its outputs as (check name, rendered text or
verdict) pairs. Checking against the golden fingerprints happens after the
clock stops, in ``check``.

Import this module only after the tracer is installed: it binds the engine's
functions at import time, and must bind the wrapped ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from reltutte.randgen import derived_seed, random_tensor_instance
from reltutte.suite import check_bijection, check_labeling_independence, check_pointed_identities
from reltutte.tensor import TensorInstance, verify_tensor_formula
from reltutte.textio import format_graph, parse_graph_text
from reltutte.tutte import tutte_recursive, universal_tutte_statesum

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: regular color names; the seed decides which logical color gets which name
REGULAR_COLORS = ("mu", "rho", "tau")
ZERO_COLOR = "z0"


# -- fixed-structure corpora ------------------------------------------------------
#
# A structure is a list of edges (u, v, c): c is a logical regular color 0..2,
# or None for a zero edge.


def wheel(n: int, zero_rim: int) -> list:
    spokes = [(0, i, 0) for i in range(1, n + 1)]
    rim = [(i, i % n + 1, None if i <= zero_rim else 1) for i in range(1, n + 1)]
    return spokes + rim


def complete(n: int, zero: int) -> list:
    edges = [(i, j, (i + j) % 2) for i in range(n) for j in range(i + 1, n)]
    return [(u, v, None if k < zero else c) for k, (u, v, c) in enumerate(edges)]


def grid(rows: int, cols: int, zero: tuple) -> list:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 0))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return [(u, v, None if k in zero else c) for k, (u, v, c) in enumerate(edges)]


def zero_cycle(n: int, chords: int) -> list:
    """A cycle of zero edges with regular chords spread around it."""
    edges = [(i, (i + 1) % n, None) for i in range(n)]
    step = n // chords
    for k in range(chords):
        u = k * step % n
        edges.append((u, (u + n // 2 + k) % n, k % 3))
    return edges


def zero_complete(n: int, regular: list) -> list:
    """A complete graph of zero edges plus the given regular edges."""
    edges = [(i, j, None) for i in range(n) for j in range(i + 1, n)]
    return edges + [(u, v, k % 3) for k, (u, v) in enumerate(regular)]


# walk: regular-heavy graphs with 1-3 zero edges. The labeling moves a graph's
# work by 4-7% (coefficient of variation over seeds), so each graph appears
# under three labelings and no single labeling sets the instance percentiles.
WALK = {
    "full": [("W8", wheel(8, 1)), ("K6", complete(6, 1)), ("G3x4", grid(3, 4, (0, 5, 11)))] * 3,
    "tiny": [("W4", wheel(4, 1)), ("K4", complete(4, 1))],
}
# zero_heavy: large zero blocks with a few regular edges
ZERO_HEAVY = {
    "full": [
        ("C12+4", zero_cycle(12, 4)),
        ("C13+6", zero_cycle(13, 6)),
        ("C14+5", zero_cycle(14, 5)),
        ("K8z+3", zero_complete(8, [(0, 1), (2, 3), (4, 5)])),
    ],
    "tiny": [("C6+2", zero_cycle(6, 2)), ("K4z+2", zero_complete(4, [(0, 1), (2, 3)]))],
}


def graph_text(structure: list, rng: random.Random) -> tuple[str, dict]:
    """Graph file text with seed-permuted edge ids and color names.

    Returns the text and the map from color name back to logical color.
    """
    regular = [k for k, e in enumerate(structure) if e[2] is not None]
    zero = [k for k, e in enumerate(structure) if e[2] is None]
    ids = {}
    for prefix, ks in (("e", regular), ("h", zero)):
        names = [f"{prefix}{i}" for i in range(len(ks))]
        rng.shuffle(names)
        ids.update(zip(ks, names))
    colors = list(REGULAR_COLORS)
    rng.shuffle(colors)
    lines = []
    for k, (u, v, c) in enumerate(structure):
        if c is None:
            lines.append(f"edge {ids[k]} {u} {v} color={ZERO_COLOR} zero")
        else:
            lines.append(f"edge {ids[k]} {u} {v} color={colors[c]}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", {name: i for i, name in enumerate(colors)}


@dataclass
class GraphInstance:
    name: str
    graph: object
    color_map: dict


def setup_graphs(corpus: dict, seed: int, size: str) -> list:
    rng = random.Random(seed)
    out = []
    for name, structure in corpus[size]:
        text, color_map = graph_text(structure, rng)
        out.append(GraphInstance(name, parse_graph_text(text), color_map))
    return out


def run_graph(inst: GraphInstance) -> list:
    """What ``reltutte tutte`` does: state sum, recursion, agreement check, render."""
    statesum = universal_tutte_statesum(inst.graph)
    recursive = tutte_recursive(inst.graph)
    agree = statesum == recursive
    return [("statesum", statesum.render()), ("recursive", recursive.render()), ("agree", agree)]


# -- tensor: a few patches reused across many bases --------------------------------

TENSOR_CATALOGUE_SEED = 20120220
TENSOR_SIZES = {"full": (4, 160), "tiny": (2, 8)}  # patches, catalogue bases


def tensor_catalogue(size: str):
    """The fixed patches and candidate bases, generated by the engine's randgen."""
    n_patches, n_bases = TENSOR_SIZES[size]
    insts = [
        random_tensor_instance(
            random.Random(derived_seed(TENSOR_CATALOGUE_SEED, k)),
            g1_regular=5, g1_lambda=(1, 3), g2_regular=3, g1_zero=(0, 1), g2_zero=(0, 1),
        )
        for k in range(n_bases)
    ]
    return [ti.g2 for ti in insts[:n_patches]], [ti.g1 for ti in insts]


def tensor_key(ti: TensorInstance) -> str:
    text = format_graph(ti.g1) + "|" + format_graph(ti.g2.graph)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TensorCase:
    ti: TensorInstance
    seed: int


def _shape(g) -> tuple:
    return len(g.edges), sum(e.color == "lam" for e in g.edges), len(g.zero_ids()), len(g.vertex_set)


def setup_tensor(seed: int, size: str) -> list:
    """Three of every four catalogue bases of similar shape, with every patch.

    Drawing within groups of similar shape keeps the work of a pass nearly
    the same on every seed.
    """
    patches, bases = tensor_catalogue(size)
    rng = random.Random(seed)
    bases.sort(key=_shape)
    drawn = [b for i in range(0, len(bases), 4) for b in rng.sample(bases[i:i + 4], 3)]
    cases = [TensorCase(TensorInstance(g1=b, g2=p, lam="lam"), seed) for b in drawn for p in patches]
    rng.shuffle(cases)
    return cases


def run_tensor(case: TensorCase) -> list:
    """What ``reltutte verify`` does, in both orientations."""
    out = []
    for flip in (False, True):
        report = verify_tensor_formula(case.ti, trials=32, seed=case.seed, flip=flip)
        tag = "flip" if flip else "plain"
        out += [
            (f"lhs_{tag}", report.lhs.render()),
            (f"rhs_{tag}", report.rhs.render()),
            (f"equal_{tag}", report.equal),
            (f"structural_{tag}", report.structural_equal),
        ]
    return out


# -- suite: distinct tiny instances of three checks --------------------------------

SUITE_CHECKS = (check_labeling_independence, check_pointed_identities, check_bijection)
SUITE_SIZES = {"full": 600, "tiny": 4}


@dataclass
class SuiteCase:
    check: object
    seed: int
    index: int


def setup_suite(seed: int, size: str) -> list:
    return [SuiteCase(fn, seed, i) for i in range(SUITE_SIZES[size]) for fn in SUITE_CHECKS]


def run_suite(case: SuiteCase) -> list:
    ok, _note, _desc = case.check(case.seed, case.index)
    return [("ok", ok)]


WORKLOADS = {
    "walk": (lambda seed, size: setup_graphs(WALK, seed, size), run_graph),
    "zero_heavy": (lambda seed, size: setup_graphs(ZERO_HEAVY, seed, size), run_graph),
    "tensor": (setup_tensor, run_tensor),
    "suite": (setup_suite, run_suite),
}


# -- golden fingerprints -------------------------------------------------------------

_P = (1 << 61) - 1
_POINTS = 2


def _hashed(*parts) -> int:
    return int.from_bytes(hashlib.sha256("|".join(map(str, parts)).encode()).digest()[:8], "big") % _P


def eval_fingerprint(text: str, color_map: dict) -> str:
    """Values of a rendered polynomial, modulo a prime, at points where the
    labeling ideal vanishes (X = x + b*y, Y = y + a*x for global a, b).

    The values do not depend on the labeling, and color names are mapped back
    to logical colors, so every seed gives the same fingerprint.
    """
    values = []
    for point in range(_POINTS):
        a, b = _hashed(point, "a"), _hashed(point, "b")

        def var(token):
            kind, rest = token[0], token[2:]
            color, _, exp = rest.partition("]")
            c = color_map[color]
            x, y = _hashed(point, "x", c), _hashed(point, "y", c)
            val = {"x": x, "y": y, "X": x + b * y, "Y": y + a * x}[kind] % _P
            return pow(val, int(exp[1:]) if exp else 1, _P)

        total = 0
        sign = 1
        for tok in text.split(" "):
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
                continue
            if tok.startswith("-"):
                sign, tok = -1, tok[1:]
            term = sign
            for factor in tok.split("·"):
                if factor.isdigit():
                    term = term * int(factor) % _P
                elif factor.startswith("z{"):
                    term = term * _hashed(point, factor) % _P
                else:
                    term = term * var(factor) % _P
            total = (total + term) % _P
        values.append(f"{total:x}")
    return ":".join(values)


def text_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(workload: str, inst, name: str, text: str) -> tuple:
    """(golden table key, output name, fingerprint) of one rendered output."""
    if workload == "tensor":
        return tensor_key(inst.ti), name, text_fingerprint(text)
    return inst.name, name, eval_fingerprint(text, inst.color_map)


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, instances: list, outputs: list, goldens: dict) -> tuple[int, int]:
    """(attempted, failed) over every output of every instance.

    Rendered outputs are compared against the golden fingerprints; verdicts
    (state sum equals recursion, formula verified, suite check passed) must be
    true. The structural-equality flag is reported by the tracer, not checked.
    """
    table = goldens.get(workload, {})
    attempted = failed = 0
    for inst, outs in zip(instances, outputs):
        for name, value in outs:
            if name.startswith("structural"):
                continue
            attempted += 1
            if isinstance(value, bool):
                ok = value
            else:
                key, slot, fp = fingerprint(workload, inst, name, value)
                ok = table.get(key, {}).get(slot) == fp
            failed += not ok
    return attempted, failed
