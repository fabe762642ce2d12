"""Regenerate goldens.json from the engine as it is now.

Run from the repository root: ``python3 perfbench/capture_goldens.py``.
The goldens pin the engine's outputs, so capture them only from a commit
whose outputs are known to be right, and never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from reltutte.tensor import TensorInstance  # noqa: E402


def main() -> None:
    goldens: dict = {}
    for workload in ("walk", "zero_heavy"):
        setup, run = workloads.WORKLOADS[workload]
        table = goldens.setdefault(workload, {})
        for size in ("full", "tiny"):
            for inst in setup(0, size):
                for name, value in run(inst):
                    if not isinstance(value, bool):
                        key, slot, fp = workloads.fingerprint(workload, inst, name, value)
                        table.setdefault(key, {})[slot] = fp
    # every pair of the full catalogue, which contains the tiny one
    patches, bases = workloads.tensor_catalogue("full")
    table = goldens.setdefault("tensor", {})
    for base in bases:
        for patch in patches:
            case = workloads.TensorCase(TensorInstance(g1=base, g2=patch, lam="lam"), 0)
            for name, value in workloads.run_tensor(case):
                if not isinstance(value, bool):
                    key, slot, fp = workloads.fingerprint("tensor", case, name, value)
                    table.setdefault(key, {})[slot] = fp
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
