"""Command line front end.

Commands: tutte, pointed, tensor, verify, suite. Exit codes: 0 ok,
1 verification failure, 2 input error, 3 internal invariant breach,
141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import EngineError, InvariantBreach
from .pointed import PointedGraph, pointed_polys
from .poly import RelPolynomial
from .suite import all_suite_names, run_suite
from .tensor import TensorInstance, tensor_product, verify_tensor_formula
from .textio import format_graph, parse_graph_file
from .tutte import tutte_recursive, universal_tutte_statesum

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


class Emitter:
    """Buffers either text lines or json objects, one per logical record."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.out = sys.stdout

    def config(self, **kv):
        if self.fmt == "jsonl":
            self.out.write(json.dumps({"name": "config", **kv}, sort_keys=True) + "\n")
        else:
            body = " ".join(f"{k}={v}" for k, v in kv.items())
            self.out.write(f"# {body}\n")

    def poly(self, name: str, p: RelPolynomial):
        if self.fmt == "jsonl":
            self.out.write(json.dumps({"name": name, "terms": p.term_records()}) + "\n")
        else:
            self.out.write(f"{name}: {p.render()}\n")

    def line(self, text: str):
        if self.fmt == "jsonl":
            self.out.write(json.dumps({"name": "message", "text": text}) + "\n")
        else:
            self.out.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, as for any other input error
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _add_common(p: argparse.ArgumentParser, seeded: bool = False, jobs: bool = False):
    if seeded:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=_positive_int, default=32)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    if jobs:
        p.add_argument("--jobs", type=_positive_int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="reltutte")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tutte", help="universal relative Tutte polynomial of a graph file")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(run=cmd_tutte)

    p = sub.add_parser("pointed", help="the five pointed polynomials of a pointed graph file")
    p.add_argument("graph")
    _add_common(p)
    p.set_defaults(run=cmd_pointed)

    p = sub.add_parser("tensor", help="build a tensor product and print its polynomial")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--color", required=True, help="regular color of g1 to replace")
    p.add_argument("--out", help="write the product graph file here")
    _add_common(p)
    p.add_argument("--flip-orientation", action="store_true")
    p.set_defaults(run=cmd_tensor)

    p = sub.add_parser("verify", help="check the substitution formula on an instance")
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("--color", required=True)
    p.add_argument("--corrupt-rhs", action="store_true", help=argparse.SUPPRESS)
    _add_common(p, seeded=True)
    p.add_argument("--flip-orientation", action="store_true")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("suite", help="run the randomized verification suites")
    p.add_argument("--instances", type=_non_negative_int, default=10)
    p.add_argument("--only", choices=all_suite_names(), action="append")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    _add_common(p, seeded=True, jobs=True)
    p.set_defaults(run=cmd_suite)

    return ap


def cmd_tutte(args) -> int:
    em = Emitter(args.format)
    g = parse_graph_file(args.graph)
    em.config(command="tutte")
    statesum = universal_tutte_statesum(g)
    recursive = tutte_recursive(g)
    em.poly("statesum", statesum)
    em.poly("recursive", recursive)
    if statesum != recursive:
        em.line("INTERNAL: state sum and recursion disagree")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_pointed(args) -> int:
    em = Emitter(args.format)
    pg = PointedGraph(parse_graph_file(args.graph))
    em.config(command="pointed")
    for name, p in pointed_polys(pg).as_dict().items():
        em.poly(name, p)
    return EXIT_OK


def _load_instance(args) -> TensorInstance:
    g1 = parse_graph_file(args.g1)
    g2 = PointedGraph(parse_graph_file(args.g2))
    return TensorInstance(g1=g1, g2=g2, lam=args.color)


def cmd_tensor(args) -> int:
    em = Emitter(args.format)
    prod = tensor_product(_load_instance(args), flip=args.flip_orientation)
    if args.out:  # before the first byte of stdout, so a failed write leaves none
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_graph(prod, header=f"tensor product of {args.g1} and {args.g2} over {args.color}"))
    em.config(command="tensor", color=args.color, flip=args.flip_orientation)
    em.line(f"product written to {args.out}" if args.out else format_graph(prod).rstrip("\n"))
    em.poly("product", universal_tutte_statesum(prod))
    return EXIT_OK


def cmd_verify(args) -> int:
    em = Emitter(args.format)
    ti = _load_instance(args)
    em.config(command="verify", seed=args.seed, trials=args.trials, color=args.color,
              flip=args.flip_orientation)
    report = verify_tensor_formula(
        ti,
        trials=args.trials,
        seed=args.seed,
        flip=args.flip_orientation,
        corrupt_rhs=args.corrupt_rhs,
    )
    em.poly("lhs", report.lhs)
    em.poly("rhs", report.rhs)
    em.line(f"equal_mod_ideal={report.equal} structural_equal={report.structural_equal}")
    # timing varies run to run, so it must not land in the reproducible stream
    print(f"elapsed={report.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.equal else EXIT_VERIFY_FAIL


def cmd_suite(args) -> int:
    em = Emitter(args.format)
    names = args.only or list(all_suite_names())
    em.config(command="suite", seed=args.seed, trials=args.trials,
              instances=args.instances, jobs=args.jobs)
    if args.instances == 0:
        em.line("WARNING: 0 instances requested; suites pass vacuously")
    failed = False
    for name in names:
        result = run_suite(name, args.instances, args.seed, jobs=args.jobs,
                           inject_fault=args.inject_fault, trials=args.trials)
        em.line(f"suite {name}: {result.total - result.failures}/{result.total} passed")
        for note in result.notes:
            em.line(f"  note {note}")
        if not result.ok:
            failed = True
            em.line(f"  first counterexample:\n{result.first_counterexample}")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # not an input error; point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
