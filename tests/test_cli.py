import json
import os
import subprocess
import sys

import pytest

import reltutte
from reltutte.cli import main
from reltutte.pointed import PointedGraph, universal_with_pointed_zero
from reltutte.textio import parse_graph_file
from reltutte.tutte import universal_tutte_statesum


@pytest.fixture
def bridge_file(tmp_path):
    p = tmp_path / "bridge.graph"
    p.write_text("edge b u v color=lam\n")
    return str(p)


@pytest.fixture
def parallel_file(tmp_path):
    p = tmp_path / "parallel.graph"
    p.write_text("edge m 1 2 color=mu\nedge h 1 2 color=z0 zero\n")
    return str(p)


@pytest.fixture
def pointed_file(tmp_path):
    p = tmp_path / "left.graph"
    p.write_text(
        "edge ep a b color=nu pointed\nedge m b c color=mu\nedge h c a color=z0 zero\n"
    )
    return str(p)


@pytest.fixture
def patch_file(tmp_path):
    p = tmp_path / "patch.graph"
    p.write_text("edge ep 1 2 color=nu pointed\nedge h 1 2 color=z0 zero\n")
    return str(p)


@pytest.fixture
def base_file(tmp_path):
    p = tmp_path / "base.graph"
    p.write_text(
        "edge f1 a b color=lam\nedge f2 b c color=lam\nedge m c a color=mu\n"
    )
    return str(p)


def test_tutte_single_bridge(bridge_file, capsys):
    assert main(["tutte", bridge_file]) == 0
    out = capsys.readouterr().out
    assert "statesum: X[lam]·z{}" in out
    assert "recursive: X[lam]·z{}" in out


def test_tutte_parallel_pair(parallel_file, capsys):
    assert main(["tutte", parallel_file]) == 0
    out = capsys.readouterr().out
    assert "y[mu]·z{bridge(z0)} + x[mu]·z{loop(z0)}" in out


def test_tutte_triangle_golden(tmp_path, capsys):
    p = tmp_path / "triangle.graph"
    p.write_text("edge e1 a b color=lam\nedge e2 b c color=lam\nedge e3 c a color=lam\n")
    assert main(["tutte", str(p)]) == 0
    out = capsys.readouterr().out
    want = "X[lam]^2·y[lam]·z{} + x[lam]^2·Y[lam]·z{} + x[lam]·X[lam]·y[lam]·z{}"
    assert f"statesum: {want}" in out
    assert f"recursive: {want}" in out


def test_tutte_takes_the_pointed_edge_as_zero(pointed_file, capsys):
    # the pointed edge is a zero edge of every walk: it gets no variable and stays in each z-symbol
    want = "y[mu]·z{bridge(nu),bridge(z0)} + x[mu]·z{cycle2(nu,z0)}"
    assert main(["tutte", pointed_file]) == 0
    out = capsys.readouterr().out
    assert out == f"# command=tutte\nstatesum: {want}\nrecursive: {want}\n"
    assert "[nu]" not in out
    assert main(["tutte", pointed_file, "--format", "jsonl"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [obj["name"] for obj in lines] == ["config", "statesum", "recursive"]
    assert lines[1]["terms"] == lines[2]["terms"] == [
        {"coeff": 1, "vars": "y[mu]", "zkey": "z{bridge(nu),bridge(z0)}"},
        {"coeff": 1, "vars": "x[mu]", "zkey": "z{cycle2(nu,z0)}"},
    ]
    g = parse_graph_file(pointed_file)
    assert universal_tutte_statesum(g) == universal_with_pointed_zero(PointedGraph(g))


def test_tensor_product_file_round_trips(base_file, patch_file, tmp_path, capsys):
    out_path = tmp_path / "product.graph"
    main(["tensor", base_file, patch_file, "--color", "lam", "--out", str(out_path)])
    first = capsys.readouterr().out
    poly_line = next(line for line in first.splitlines() if line.startswith("product:"))
    # the emitted file reproduces the same polynomial through the tutte command
    assert main(["tutte", str(out_path)]) == 0
    second = capsys.readouterr().out
    assert poly_line.split(": ", 1)[1] in second


@pytest.mark.parametrize(
    "text, want",
    [
        ("".join(f"edge e{i} a a color=mu\n" for i in range(1200)) + "edge h a b color=z0 zero\n",
         "Y[mu]^1200·z{bridge(z0)}"),
        ("".join(f"edge e{i:04d} v{i} v{i + 1} color=mu\n" for i in range(1200)), "X[mu]^1200·z{}"),
    ],
    ids=["1200-loops", "1200-path"],
)
def test_tutte_deeper_than_the_recursion_limit(text, want, tmp_path, capsys):
    # both walks are deeper than the interpreter's recursion limit
    p = tmp_path / "deep.graph"
    p.write_text(text)
    assert main(["tutte", str(p)]) == 0
    out = capsys.readouterr().out
    assert f"statesum: {want}\n" in out and f"recursive: {want}\n" in out


def test_tutte_bad_file_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("edge a 1 2 color=mu\nedge a 2 3 color=mu\n")
    assert main(["tutte", str(p)]) == 2
    assert main(["tutte", str(tmp_path / "missing.graph")]) == 2


def test_pointed_golden(pointed_file, capsys):
    assert main(["pointed", pointed_file]) == 0
    out = capsys.readouterr().out
    assert "T_-: X[mu]·z{bridge(z0)} - x[mu]·z{bridge(z0)}" in out
    assert "T_L: 0" in out


def test_pointed_requires_pointed_edge(parallel_file):
    assert main(["pointed", parallel_file]) == 2


def test_tensor_writes_product(base_file, patch_file, tmp_path, capsys):
    out_path = tmp_path / "product.graph"
    assert main(["tensor", base_file, patch_file, "--color", "lam", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "edge f1/h" in text and "edge f2/h" in text and "edge m" in text
    out = capsys.readouterr().out
    assert "product:" in out


def test_verify_ok_and_corrupt(base_file, patch_file, capsys):
    assert main(["verify", base_file, patch_file, "--color", "lam", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "equal_mod_ideal=True" in out
    assert "seed=5" in out
    assert main(["verify", base_file, patch_file, "--color", "lam", "--corrupt-rhs"]) == 1


def test_pointed_jsonl_schema(pointed_file, capsys):
    assert main(["pointed", pointed_file, "--format", "jsonl"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    names = [obj["name"] for obj in lines]
    assert names == ["config", "T_C", "T_L", "T_0", "T_/", "T_-"]


def test_verify_rejects_invalid_instance(base_file, patch_file):
    # replaced color must exist as a regular color discipline: nu is reserved
    assert main(["verify", base_file, patch_file, "--color", "nu"]) == 2


def test_verify_jsonl_schema(base_file, patch_file, capsys):
    assert main(["verify", base_file, patch_file, "--color", "lam", "--format", "jsonl"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    names = [obj["name"] for obj in lines]
    assert names[0] == "config"
    assert "lhs" in names and "rhs" in names
    lhs = next(obj for obj in lines if obj["name"] == "lhs")
    assert all(set(t) == {"coeff", "vars", "zkey"} for t in lhs["terms"])


def test_output_deterministic(base_file, patch_file, capsys):
    main(["verify", base_file, patch_file, "--color", "lam", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", base_file, patch_file, "--color", "lam", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_suite_smoke(capsys):
    assert main(["suite", "--instances", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "suite labeling-independence: 2/2 passed" in out
    assert "suite tensor-formula: 2/2 passed" in out


def test_suite_zero_instances_warns(capsys):
    assert main(["suite", "--instances", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 instances" in out


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_suite_negative_instances_rejected(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--instances", value, "--only", "bijection"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 0" in captured.err


def test_suite_injected_fault(capsys):
    code = main(
        ["suite", "--instances", "1", "--seed", "3", "--only", "labeling-independence", "--inject-fault"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "first counterexample" in out
    assert "edge " in out  # offending graph file is included


def test_suite_parallel_output_matches_serial(capsys):
    assert main(["suite", "--instances", "3", "--seed", "9", "--only", "tensor-formula"]) == 0
    serial = capsys.readouterr().out
    assert main(["suite", "--instances", "3", "--seed", "9", "--only", "tensor-formula", "--jobs", "3"]) == 0
    parallel = capsys.readouterr().out
    assert serial.replace("jobs=1", "jobs=3") == parallel


def test_unreadable_input_exit_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin.graph"
    not_utf8.write_bytes(b"\xff\xfe")
    for path in (tmp_path, not_utf8):
        assert main(["tutte", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_tensor_out_into_missing_directory_leaves_no_stdout(base_file, patch_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "product.graph"
    assert main(["tensor", base_file, patch_file, "--color", "lam", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tutte", "g.graph", "--bogus"], "unrecognized arguments: --bogus"),
        (["tutte"], "the following arguments are required: graph"),
        (["tensor", "g1", "g2"], "the following arguments are required: --color"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown-flag", "missing-positional", "missing-required-flag", "missing-command"],
)
def test_parse_error_is_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag", ["--trials", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_rejected(flag, value, base_file, patch_file, capsys):
    commands = [["suite", "--instances", "1"]]
    if flag == "--trials":  # only suite reads --jobs
        commands.append(["verify", base_file, patch_file, "--color", "lam"])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


def test_flip_orientation_only_where_read(base_file, patch_file, bridge_file, pointed_file, capsys):
    # suite always checks both orientations, and tutte and pointed glue nothing
    for argv in (["suite", "--instances", "1"], ["tutte", bridge_file], ["pointed", pointed_file]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--flip-orientation"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --flip-orientation" in capsys.readouterr().err
    assert main(["verify", base_file, patch_file, "--color", "lam", "--flip-orientation"]) == 0
    assert "flip=True" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--seed", "9"], ["--trials", "5"], ["--jobs", "3"]])
def test_unread_flags_rejected(flag, base_file, patch_file, bridge_file, pointed_file, capsys):
    # tutte, pointed and tensor draw nothing at random, and only suite runs workers
    commands = [["tutte", bridge_file], ["pointed", pointed_file], ["tensor", base_file, patch_file, "--color", "lam"]]
    if flag[0] == "--jobs":
        commands.append(["verify", base_file, patch_file, "--color", "lam"])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_config_line_echoes_only_read_flags(bridge_file, pointed_file, base_file, patch_file, capsys):
    assert main(["tutte", bridge_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# command=tutte"
    assert main(["pointed", pointed_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# command=pointed"
    assert main(["tensor", base_file, patch_file, "--color", "lam"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# command=tensor color=lam flip=False"
    assert main(["tensor", base_file, patch_file, "--color", "lam", "--flip-orientation"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# command=tensor color=lam flip=True"


def test_closed_stdout_exits_141_silently(tmp_path):
    # K6 with a colour per edge: one term per spanning tree, far more output than a pipe holds
    k6 = tmp_path / "k6.graph"
    k6.write_text("".join(f"edge e{u}{v} {u} {v} color=c{u}{v}\n" for u in range(6) for v in range(u + 1, 6)))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(reltutte.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "reltutte.cli", "tutte", str(k6)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"# command=tutte\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("command", ["verify", "tensor"])
def test_color_on_no_regular_base_edge_rejected(command, base_file, patch_file, capsys):
    assert main([command, base_file, patch_file, "--color", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'nope'" in err[0]


@pytest.mark.parametrize("command", ["verify", "tensor"])
@pytest.mark.parametrize(
    "base, patch",
    [
        ("edge f a b color=lam\nedge h a b color=mu zero\n", "edge ep 1 2 color=nu pointed\nedge r 1 2 color=mu\n"),
        ("edge f a b color=lam\nedge r a b color=mu\n", "edge ep 1 2 color=nu pointed\nedge h 1 2 color=mu zero\n"),
    ],
    ids=["zero-in-base", "zero-in-patch"],
)
def test_color_zero_on_one_side_and_regular_on_the_other_rejected(command, base, patch, tmp_path, capsys):
    (tmp_path / "base.graph").write_text(base)
    (tmp_path / "patch.graph").write_text(patch)
    assert main([command, str(tmp_path / "base.graph"), str(tmp_path / "patch.graph"), "--color", "lam"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: colors used both as zero and regular: ['mu']\n"


def test_suite_trials_take_effect(monkeypatch, capsys):
    import reltutte.suite as suite

    seen = []
    real = suite.equal_mod_ideal

    def spy(p, q, trials, seed):
        seen.append(trials)
        return real(p, q, trials=trials, seed=seed)

    monkeypatch.setattr(suite, "equal_mod_ideal", spy)
    args = ["suite", "--instances", "2", "--only", "labeling-independence", "--only", "pointed-identities"]
    assert main(args + ["--trials", "5"]) == 0
    assert "trials=5" in capsys.readouterr().out
    assert seen and set(seen) == {5}


def test_suite_jobs_clamped(monkeypatch):
    import reltutte.suite as suite

    monkeypatch.setattr(suite.os, "cpu_count", lambda: 4)
    assert suite.worker_count(1, 10) == 1
    assert suite.worker_count(3, 10) == 3
    assert suite.worker_count(64, 10) == 4
    assert suite.worker_count(64, 2) == 2
    assert suite.worker_count(8, 0) == 1
    monkeypatch.setattr(suite.os, "cpu_count", lambda: None)
    assert suite.worker_count(8, 10) == 1

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(suite.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suite, "ProcessPoolExecutor", FakePool)
    result = suite.run_suite("labeling-independence", 3, seed=1, jobs=1000)
    assert result.ok and pools == [2]


POOL_PROBE = """
import json, os, sys

def pool_modules():
    return sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))

import reltutte.cli
from reltutte.suite import run_suite

seen = {"import": pool_modules()}
run_suite("bijection", 1, seed=9, jobs=4)  # one instance: one worker, so no pool
seen["serial"] = pool_modules()
os.cpu_count = lambda: 2  # two workers even on a one-core machine
runs = {jobs: run_suite("bijection", 3, seed=9, jobs=jobs) for jobs in (1, 2)}
seen["parallel"] = pool_modules()
seen["results"] = [[r.ok, r.failures, r.notes, r.first_counterexample] for r in runs.values()]
print(json.dumps(seen))
"""


def test_process_pool_loads_only_when_a_suite_starts_workers():
    # pytest's own process may already hold these modules, so look in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(reltutte.__file__))}
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == [] and seen["serial"] == []
    assert "concurrent.futures.process" in seen["parallel"]
    serial, parallel = seen["results"]
    assert serial == parallel and serial[:2] == [True, 0]


def test_suite_fails_when_only_the_flipped_orientation_fails(monkeypatch, capsys):
    import dataclasses

    import reltutte.suite as suite

    real = suite.verify_tensor_formula

    def flipped_fails(ti, trials, seed, flip=False):
        report = real(ti, trials=trials, seed=seed, flip=flip)
        return dataclasses.replace(report, equal=report.equal and not flip)

    monkeypatch.setattr(suite, "verify_tensor_formula", flipped_fails)
    assert main(["suite", "--instances", "2", "--seed", "0", "--only", "tensor-formula"]) == 1
    out = capsys.readouterr().out
    assert "suite tensor-formula: 0/2 passed" in out
    assert "instance 0: substitution formula failed in orientation: flipped" in out


def test_invariant_breach_exit_3(monkeypatch, parallel_file, capsys):
    import reltutte.cli as cli
    from reltutte.errors import InvariantBreach

    def breach(g):
        raise InvariantBreach("walk lost a leaf")

    monkeypatch.setattr(cli, "universal_tutte_statesum", breach)
    assert main(["tutte", parallel_file]) == 3
    assert "walk lost a leaf" in capsys.readouterr().err
