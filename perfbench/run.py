"""Benchmark of the reltutte engine, run from the repository root:

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0

Each pass runs one workload's whole corpus in a fresh interpreter
(``worker.py``), so the engine's process caches start empty, as on every
``reltutte`` command. Passes repeat on the same seed until the time is up.
With ``--trace 0`` the last stdout line gives the end-to-end metrics as
medians over passes; with ``--trace 1`` untraced and traced passes alternate,
and it gives the per-layer metrics of the traced passes and the tracing
overhead. ``attempted`` and ``failed`` count checked outputs over all passes.
The line before it is a JSON record of the run's metadata, which is also
appended to ``perfbench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "reltutte")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("walk", "zero_heavy", "tensor", "suite")

# a fixed hash seed makes set and dict layouts, and so memory use, repeat
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
MIN_PASSES = 3  # untraced passes of a --trace 0 run, even past --seconds
HARD_LIMIT_S = 150.0  # start no pass after this, so the run ends within 180 s


class PassFailed(RuntimeError):
    pass


def run_pass(args, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT, f"spans-{args.workload}.bin")]
    if args.corrupt:
        cmd.append("--corrupt")
    cmd += ["--t0", repr(perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, start: float) -> tuple[list, list]:
    """Untraced and traced pass records, repeating until --seconds after start are spent."""
    untraced, traced = [], []
    longest = 0.0
    while True:
        elapsed = perf_counter() - start
        enough = len(traced) >= 1 if args.trace else len(untraced) >= MIN_PASSES
        if enough and (elapsed + longest > args.seconds or elapsed > HARD_LIMIT_S):
            return untraced, traced
        t = perf_counter()
        untraced.append(run_pass(args, False, timeout=170 - elapsed))
        if args.trace:
            traced.append(run_pass(args, True, timeout=170 - (perf_counter() - start)))
        longest = max(longest, perf_counter() - t)


def end_to_end(untraced: list) -> tuple[dict, dict]:
    times = [t for rec in untraced for t in rec["instance_s"]]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]

    def med(key):
        return statistics.median(rec[key] for rec in untraced)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "instance_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "instance_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    samples = {"wall_s": len(untraced), "setup_s": len(untraced), "peak_rss_mb": len(untraced),
                "instance_p50_ms": len(times), "instance_p90_ms": len(times)}
    return metrics, samples


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def per_layer(untraced: list, traced: list) -> tuple[dict, dict]:
    metrics = {
        name: (statistics.median(rec["layers"][name] for rec in traced), unit(name))
        for name in traced[0]["layers"]
    }
    # the traced window covers input generation too, since set-up layers are traced
    window = statistics.median(rec["layers"]["trace.wall_s"] for rec in traced)
    plain = statistics.median(rec["inputs_s"] + rec["wall_s"] for rec in untraced)
    metrics["trace.overhead_ratio"] = (window / plain, "ratio")
    samples = {name: len(traced) for name in metrics}
    samples["trace.overhead_ratio"] = [len(untraced), len(traced)]
    return metrics, samples


def metadata(args, samples: dict, untraced: list) -> dict:
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for name in files:
        with open(os.path.join(SRC, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "instances_per_pass": len(untraced[0]["instance_s"]),
        "samples": samples,
    }


def git_sha():
    """HEAD of the repository this file sits in, or None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test corpora")
    ap.add_argument("--corrupt", action="store_true", help="negative control: corrupt one output per pass")
    args = ap.parse_args()
    start = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: engine sources not found at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # compile the bytecode once, as an installed package has it, so that no
    # measured pass pays for it
    warm = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                          capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: cannot compile the sources:\n{warm.stdout}{warm.stderr}", file=sys.stderr)
        return 2
    try:
        untraced, traced = run_passes(args, start)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, samples = per_layer(untraced, traced)
    else:
        metrics, samples = end_to_end(untraced)
    attempted = sum(rec["attempted"] for rec in untraced + traced)
    failed = sum(rec["failed"] for rec in untraced + traced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }
    meta = metadata(args, samples, untraced)
    for name, (value, u) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {u}", file=sys.stderr)
    print(f"{args.workload} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}", file=sys.stderr)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, **result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
