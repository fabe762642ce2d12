"""Randomized verification suites driven by the CLI.

Each suite checks one family of identities on seeded random instances and
reports counts plus the first counterexample (as graph file text) if any.
Workers are top-level functions taking plain integers so suites can run in a
process pool; results are emitted in instance order regardless of worker
count. The pool starts only when a run uses more than one worker, and only
then are its modules (``concurrent.futures``, ``multiprocessing``) imported.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .poly import equal_mod_ideal, variable
from .pointed import pi_0, pi_C, pi_L, pointed_polys, universal_with_pointed_zero
from .randgen import (
    derived_seed,
    random_graph_with_zero_edges,
    random_pointed_graph,
    random_proper_labeling,
    random_tensor_instance,
)
from .tensor import (
    compose_contracting_set,
    induced_partition,
    tensor_product,
    verify_tensor_formula,
)
from .textio import format_graph
from .tutte import ContractingSet, enumerate_contracting_sets, universal_tutte_statesum


@dataclass
class SuiteResult:
    name: str
    total: int
    failures: int = 0
    first_counterexample: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def check_labeling_independence(seed: int, index: int, trials: int = 32) -> tuple[bool, str, str]:
    rng = random.Random(derived_seed(seed, index))
    g = random_graph_with_zero_edges(rng, max_edges=8)
    lab1 = random_proper_labeling(rng, g)
    lab2 = random_proper_labeling(rng, g)
    p1 = universal_tutte_statesum(g, lab1)
    p2 = universal_tutte_statesum(g, lab2)
    ok = equal_mod_ideal(p1, p2, trials=trials, seed=derived_seed(seed, index))
    return ok, "" if ok else "labeling independence failed", format_graph(g)


def check_pointed_identities(seed: int, index: int, trials: int = 32) -> tuple[bool, str, str]:
    rng = random.Random(derived_seed(seed, index))
    pg = random_pointed_graph(rng, max_regular=4, zero_edges=(0, 2))
    desc = format_graph(pg.graph)
    u = universal_with_pointed_zero(pg)
    if pi_C(u) + pi_L(u) + pi_0(u) != u:
        return False, "type projection partition failed", desc
    pp = pointed_polys(pg)
    s = derived_seed(seed, index)
    for mu in sorted(set(pg.graph.regular_colors()) or {"mu"}):
        x_m, y_m = variable("x", mu), variable("y", mu)
        cx_m, cy_m = variable("X", mu), variable("Y", mu)
        lhs1 = x_m * (pp.tslash - pp.tc)
        rhs1 = (cy_m - y_m) * pp.tl
        lhs2 = y_m * (pp.tminus - pp.tl)
        rhs2 = (cx_m - x_m) * pp.tc
        if not equal_mod_ideal(lhs1, rhs1, trials=trials, seed=s):
            return False, f"contract-side exchange identity failed for color {mu}", desc
        if not equal_mod_ideal(lhs2, rhs2, trials=trials, seed=s):
            return False, f"delete-side exchange identity failed for color {mu}", desc
    return True, "", desc


def check_bijection(seed: int, index: int) -> tuple[bool, str, str]:
    rng = random.Random(derived_seed(seed, index))
    ti = random_tensor_instance(
        rng, g1_regular=3, g1_lambda=(1, 2), g2_regular=3, g1_zero=(0, 1), g2_zero=(0, 1)
    )
    desc = "base:\n" + format_graph(ti.g1) + "patch:\n" + format_graph(ti.g2.graph)
    prod = tensor_product(ti)
    for cs in enumerate_contracting_sets(prod):
        part = induced_partition(ti, cs)
        per_copy = {}
        for f in ti.lambda_edge_ids():
            ids = ti.copy_edge_ids(f)
            per_copy[f] = ContractingSet(cs.contracting & ids, cs.deleting & ids)
        rebuilt = compose_contracting_set(ti, (part.c1, part.d1, part.demoted), per_copy)
        if rebuilt != cs:
            return False, "round trip failed", desc
    return True, "", desc


def check_tensor_formula(seed: int, index: int, trials: int = 32) -> tuple[bool, str, str]:
    rng = random.Random(derived_seed(seed, index))
    ti = random_tensor_instance(rng)
    s = derived_seed(seed, index)
    desc = "base:\n" + format_graph(ti.g1) + "patch:\n" + format_graph(ti.g2.graph)
    report = verify_tensor_formula(ti, trials=trials, seed=s)
    flip_report = verify_tensor_formula(ti, trials=trials, seed=s, flip=True)
    failed = " and ".join(side for side, r in (("plain", report), ("flipped", flip_report)) if not r.equal)
    if failed:
        return False, f"substitution formula failed in orientation: {failed}", desc
    return True, f"flip_equal=True structural={report.structural_equal}", desc


_SUITES = {
    "labeling-independence": check_labeling_independence,
    "pointed-identities": check_pointed_identities,
    # exact round trip: no randomized trials to pass on
    "bijection": lambda seed, index, trials: check_bijection(seed, index),
    "tensor-formula": check_tensor_formula,
}


def _run_one(args: tuple) -> tuple[int, bool, str, str]:
    name, seed, index, inject_fault, trials = args
    ok, note, desc = _SUITES[name](seed, index, trials)
    if inject_fault and index == 0:
        ok, note = False, f"injected fault in instance 0 of {name}"
    return index, ok, note, desc


def ProcessPoolExecutor(max_workers: int):
    """The pool of a parallel suite run; its modules load on the first call."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def worker_count(jobs: int, instances: int) -> int:
    """Worker processes for a suite run: jobs clamped to [1, min(cpu count, instances)]."""
    return max(1, min(jobs, os.cpu_count() or 1, instances))


def run_suite(
    name: str,
    instances: int,
    seed: int,
    jobs: int = 1,
    inject_fault: bool = False,
    trials: int = 32,
) -> SuiteResult:
    result = SuiteResult(name=name, total=instances)
    tasks = [(name, seed, i, inject_fault, trials) for i in range(instances)]
    workers = worker_count(jobs, instances)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]
    outcomes.sort(key=lambda t: t[0])
    for index, ok, note, desc in outcomes:
        if ok and note:
            result.notes.append(f"instance {index}: {note}")
        if not ok:
            result.failures += 1
            if result.first_counterexample is None:
                result.first_counterexample = f"instance {index}: {note}\n{desc}"
    return result


def all_suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)
