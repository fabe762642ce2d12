"""One benchmark pass in a fresh interpreter, so the engine's process caches start empty.

Run by ``run.py``; prints one JSON object. ``--t0`` is the parent's
``perf_counter`` just before it started this process, so set-up time covers
interpreter start, import, and generating and parsing the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    ap.add_argument("--corrupt", action="store_true", help="negative control: corrupt one output")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    t_inputs = perf_counter()
    instances = setup(args.seed, args.size)
    t_ready = perf_counter()

    times, outputs = [], []
    for k, inst in enumerate(instances):
        if tracer:
            tracer.current_instance = k
        t = perf_counter()
        outputs.append(run(inst))
        times.append(perf_counter() - t)
    t_end = perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.corrupt:
        name, value = outputs[0][0]
        outputs[0][0] = (name, (not value) if isinstance(value, bool) else value + " + 1")
    attempted, failed = workloads.check(args.workload, instances, outputs, workloads.load_goldens())

    record = {
        "setup_s": t_ready - args.t0,
        "inputs_s": t_ready - t_inputs,
        "wall_s": t_end - t_ready,
        "instance_s": times,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer:
        record["layers"] = layer_metrics(tracer, outputs, window_s=t_end - t_inputs)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))


def layer_metrics(tracer, outputs: list, window_s: float) -> dict:
    """Per-layer metrics of the traced pass, named as in BENCHMARK.json."""
    st = tracer.self_times()

    def calls(*layers):
        return sum(st.get(layer, (0, 0.0))[0] for layer in layers)

    def self_s(*layers):
        return sum(st.get(layer, (0, 0.0))[1] for layer in layers)

    def ratio(num, den):
        return num / den if den else 0.0

    ops = ("graph.contract", "graph.delete", "graph.is_bridge", "graph.components")
    structural = [v for outs in outputs for name, v in outs if name.startswith("structural")]
    m = {
        "graph.contract.calls": calls("graph.contract"),
        "graph.delete.calls": calls("graph.delete"),
        "graph.is_bridge.calls": calls("graph.is_bridge"),
        "graph.components.calls": calls("graph.components"),
        "graph.ops.self_s": self_s(*ops),
        "graph.blocks.self_s": self_s("graph.blocks"),
        "graph.pivot_class_key.calls": calls("graph.pivot_class_key"),
        "graph.pivot_class_key.self_s": self_s("graph.pivot_class_key"),
        "graph.pivot_class_key.distinct_ratio": ratio(len(tracer.pivot_args), calls("graph.pivot_class_key")),
        "graph.canonical_atoms.self_s": self_s("graph.canonical_atoms"),
        "tutte.statesum.calls": calls("tutte.statesum"),
        "tutte.statesum.self_s": self_s("tutte.statesum"),
        "tutte.recursive.self_s": self_s("tutte.recursive"),
        "tutte.enumerate.self_s": self_s("tutte.enumerate"),
        "tutte.leaves": tracer.leaves,
        "tutte.terms": tracer.terms,
        "pointed.pointed_polys.calls": calls("pointed.pointed_polys"),
        "pointed.pointed_polys.self_s": self_s("pointed.pointed_polys"),
        "pointed.pointed_polys.distinct_ratio": ratio(len(tracer.pointed_args), calls("pointed.pointed_polys")),
        "pointed.classify_pair.calls": calls("pointed.classify_pair"),
        "pointed.classify_pair.self_s": self_s("pointed.classify_pair"),
        "tensor.tensor_product.self_s": self_s("tensor.tensor_product"),
        "tensor.beta_lambda.self_s": self_s("tensor.beta_lambda"),
        "tensor.sigma.self_s": self_s("tensor.sigma"),
        "tensor.beta_zero.self_s": self_s("tensor.beta_zero"),
        "tensor.substitution_rhs.self_s": self_s("tensor.substitution_rhs"),
        "tensor.bijection.self_s": self_s("tensor.bijection"),
        "tensor.structural_equal_ratio": ratio(sum(structural), len(structural)),
        "poly.equal_mod_ideal.calls": calls("poly.equal_mod_ideal"),
        "poly.equal_mod_ideal.self_s": self_s("poly.equal_mod_ideal"),
        "poly.arith.calls": calls("poly.arith"),
        "poly.arith.self_s": self_s("poly.arith"),
        "poly.render.self_s": self_s("poly.render"),
        "textio.parse.self_s": self_s("textio.parse"),
        "randgen.self_s": self_s("randgen"),
        "trace.wall_s": window_s,
        "trace.layers_self_s": sum(s for _, s in st.values()),
    }
    return m


if __name__ == "__main__":
    main()
