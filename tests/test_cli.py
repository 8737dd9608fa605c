"""Command-line behavior: exit codes, outputs, budgets."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from firmfold import build_min_plus_one, cli, evaluate, is_isomorphic, load, save_native, verify
from firmfold.cli import _build_parser, main
from helpers import diamond_chain, relabel

FIXTURE = Path(__file__).parent / "data" / "min_plus_one_firm.gxl"


def write_example(path: Path) -> Path:
    path.write_bytes(save_native(build_min_plus_one(3, 5, "lt")))
    return path


def test_example_then_verify(tmp_path, capsys):
    out = tmp_path / "example.gxl"
    assert main(["example", "--a", "3", "--b", "5", "--rel", "lt", "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == ""
    g = load(out.read_bytes())
    assert is_isomorphic(g, build_min_plus_one(3, 5, "lt"))


def test_verify_reports_violations_on_stdout(tmp_path, capsys):
    g = build_min_plus_one(3, 5, "lt")
    g.delete_node(23)
    bad = tmp_path / "bad.gxl"
    bad.write_bytes(save_native(g))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "phi-check: " in out
    assert "[witnesses: n3, n12]" in out


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file.gxl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_malformed_xml(tmp_path, capsys):
    bad = tmp_path / "broken.gxl"
    bad.write_text("<gxl><graph id='g'>")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_unknown_encoding(tmp_path, capsys):
    bad = tmp_path / "encoding.gxl"
    bad.write_bytes(b"<?xml version='1.0' encoding='utf-9'?><gxl><graph id='g'/></gxl>")
    assert main(["verify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_overlong_node_id(tmp_path, capsys):
    bad = tmp_path / "long-id.gxl"
    node_id = "n" + "9" * (sys.get_int_max_str_digits() + 1)
    node = f"<node id='{node_id}'><type href='#Block'/></node>"
    bad.write_text(f"<gxl><graph id='g'>{node}</graph></gxl>")
    assert main(["verify", str(bad)]) == 2
    assert "too many to read" in capsys.readouterr().err


def test_fold_writes_all_outputs(tmp_path):
    src = write_example(tmp_path / "in.gxl")
    out = tmp_path / "out.gxl"
    trace = tmp_path / "steps.txt"
    dot = tmp_path / "out.dot"
    code = main(
        ["fold", str(src), str(out), "--trace", str(trace), "--dot", str(dot)]
    )
    assert code == 0
    folded = load(out.read_bytes())
    assert verify(folded) == []
    assert evaluate(folded) == 4
    lines = trace.read_text().splitlines()
    assert len(lines) == 10
    assert lines[0] == "step 1: cmp-fold-int @ [n8, n5, n6]"
    assert dot.read_text().startswith("digraph {")


def test_fold_accepts_the_attributed_dialect(tmp_path, capsys):
    out, trace = tmp_path / "out.gxl", tmp_path / "steps.txt"
    assert main(["verify", str(FIXTURE)]) == 0
    assert main(["fold", str(FIXTURE), str(out), "--trace", str(trace)]) == 0
    assert trace.read_text().count("\n") == 10
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert evaluate(load(out.read_bytes())) == 4


def test_fold_step_limit_blocks_all_output(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    out = tmp_path / "out.gxl"
    trace = tmp_path / "steps.txt"
    code = main(["fold", str(src), str(out), "--trace", str(trace), "--max-steps", "3"])
    assert code == 1
    assert "no fixpoint within 3 steps" in capsys.readouterr().err
    assert not out.exists()
    assert not trace.exists()


def test_fold_runs_past_ten_thousand_steps_by_default(tmp_path, capsys):
    chain = diamond_chain(random.Random(0), 1024)
    assert chain.element_count() == 23558
    # the chain, and its twin with its ids reversed, so that the start
    # block has the highest id, fold in as many steps
    for name, g in (("chain", chain), ("start-last", relabel(chain))):
        src = tmp_path / f"{name}.gxl"
        src.write_bytes(save_native(g))
        out, trace = tmp_path / f"{name}-out.gxl", tmp_path / f"{name}-steps.txt"
        assert main(["fold", str(src), str(out), "--trace", str(trace)]) == 0, name
        assert trace.read_text().count("\n") == 11264, name
        assert main(["verify", str(out)]) == 0, name
    assert capsys.readouterr().out == ""
    capped = tmp_path / "capped.gxl"
    assert main(["fold", str(tmp_path / "chain.gxl"), str(capped), "--max-steps", "23558"]) == 0
    assert (tmp_path / "chain-out.gxl").read_bytes() == capped.read_bytes()


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call in a process; no call's options leak into the next
    assert _build_parser() is _build_parser()
    src = write_example(tmp_path / "in.gxl")
    out = tmp_path / "out.gxl"
    assert main(["fold", str(src), str(out), "--max-steps", "0"]) == 1
    assert main(["fold", str(src), str(out)]) == 0
    assert main(["verify", str(src), "--dialect", "firm"]) == 2
    assert main(["verify", str(src)]) == 0
    assert main(["explore", str(src), "--max-states", "1"]) == 1
    capsys.readouterr()
    assert main(["explore", str(src)]) == 0
    assert "states: 26\n" in capsys.readouterr().out


def test_negative_budgets_are_usage_errors(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    out = tmp_path / "out.gxl"
    assert main(["fold", str(src), str(out), "--max-steps", "-3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["explore", str(src), "--max-states", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    # zero is a usable, if tight, budget
    assert main(["fold", str(src), str(out), "--max-steps", "0"]) == 1
    assert "no fixpoint within 0 steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,raw",
    [
        (["fold", "in.gxl", "out", "--max-steps", "abc"], "abc"),
        (["explore", "in.gxl", "--report", "out", "--max-states", "1.5"], "1.5"),
    ],
)
def test_non_integer_budgets_are_usage_errors(tmp_path, monkeypatch, capsys, argv, raw):
    monkeypatch.chdir(tmp_path)
    write_example(tmp_path / "in.gxl")
    assert main(argv) == 2
    usage, *rest = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ")
    message = f"error: argument {argv[-2]}: must be a non-negative integer, got {raw!r}"
    assert rest[-1].endswith(message)
    assert not (tmp_path / "out").exists()


def test_explore_report_on_stdout(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    assert main(["explore", str(src)]) == 0
    assert capsys.readouterr().out == (
        "states: 26\ntransitions: 44\nfinal_states: 1\nfinal_states_isomorphic: true\n"
    )


def test_explore_report_to_file(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    report = tmp_path / "report.txt"
    assert main(["explore", str(src), "--report", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text().endswith("final_states_isomorphic: true\n")


def test_explore_state_limit(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    assert main(["explore", str(src), "--max-states", "2"]) == 1
    assert "state space exceeds" in capsys.readouterr().err


def test_explore_state_limit_counts_the_initial_state(tmp_path, capsys):
    src = write_example(tmp_path / "in.gxl")
    fixpoint = tmp_path / "fixpoint.gxl"
    assert main(["fold", str(src), str(fixpoint)]) == 0
    assert main(["explore", str(fixpoint), "--max-states", "0"]) == 1
    assert "state space exceeds 0 states" in capsys.readouterr().err
    assert main(["explore", str(fixpoint), "--max-states", "1"]) == 0
    assert capsys.readouterr().out.startswith("states: 1\n")


def test_dialect_override(tmp_path, capsys):
    # forcing the native reader onto an attributed document must fail
    # cleanly rather than guess
    assert main(["verify", str(FIXTURE), "--dialect", "firm"]) == 0
    assert main(["verify", str(FIXTURE), "--dialect", "native"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["example"]) == 2  # missing -o
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "firmfold" in capsys.readouterr().out


def sweep_dir(path: Path) -> Path:
    """The inputs of the failure sweep: the example, a truncated copy of
    it, the attributed fixture and a directory."""
    example = write_example(path / "ex.gxl")
    (path / "truncated.gxl").write_bytes(example.read_bytes()[:300])
    (path / "firm.gxl").write_bytes(FIXTURE.read_bytes())
    (path / "adir").mkdir()
    return path


# (argv, exit code): each way each subcommand fails
FAILURES = [
    *(
        ([cmd, source, *rest], 2)
        for cmd, rest in (("verify", []), ("fold", ["out.gxl"]), ("explore", []))
        for source in ("missing.gxl", "adir", "truncated.gxl")
    ),
    (["verify", "ex.gxl", "--dialect", "firm"], 2),
    (["fold", "firm.gxl", "out.gxl", "--dialect", "native"], 2),
    (["explore", "ex.gxl", "--dialect", "firm"], 2),
    (["fold", "ex.gxl", "adir"], 2),
    (["fold", "ex.gxl", "out.gxl", "--trace", "adir"], 2),
    (["fold", "ex.gxl", "out.gxl", "--dot", "adir"], 2),
    (["explore", "ex.gxl", "--report", "adir"], 2),
    (["example", "-o", "adir"], 2),
    (["fold", "ex.gxl", "o.gxl", "--trace", "t", "--dot", "d", "--max-steps", "3"], 1),
    (["explore", "ex.gxl", "--max-states", "2", "--report", "report.txt"], 1),
]


@pytest.mark.parametrize(
    ("argv", "code"), FAILURES, ids=[" ".join(argv) for argv, _ in FAILURES]
)
def test_every_failure_is_one_error_line_and_an_exit_code(
    argv, code, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(sweep_dir(tmp_path))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if code == 1:
        assert sorted(tmp_path.rglob("*")) == before


def test_each_subcommand_reaches_the_names_it_calls_through_its_module(
    tmp_path, monkeypatch, capsys
):
    # the benchmark harness wraps these names on firmfold.cli
    calls: Counter[str] = Counter()
    for name in ("load", "verify", "fold", "explore", "save_native", "export_dot"):
        def counting(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    monkeypatch.chdir(tmp_path)
    assert main(["example", "-o", "ex.gxl"]) == 0
    assert main(["verify", "ex.gxl"]) == 0
    assert main(["fold", "ex.gxl", "out.gxl", "--dot", "out.dot"]) == 0
    assert main(["explore", "ex.gxl"]) == 0
    capsys.readouterr()
    expected = {"load": 3, "verify": 1, "fold": 1, "explore": 1, "save_native": 2, "export_dot": 1}
    assert calls == expected


# Runs the statements of its first argument in a fresh interpreter, with
# the rest as `args`, and prints the exit `code` they set (0 if none),
# their output and the modules they added to `sys.modules`, as JSON.
_FOOTPRINT = """
import contextlib, io, json, sys
before = set(sys.modules)
args, code = sys.argv[2:], 0
with contextlib.redirect_stdout(io.StringIO()) as out:
    exec(sys.argv[1])
added = sorted(set(sys.modules) - before)
print(json.dumps({"code": code, "out": out.getvalue(), "added": added}))
"""
_COMMAND = "from firmfold.cli import main; code = main(args)"

#: What a command of a plain document does not load: OpenSSL (through
#: `hashlib`), which no digest needs since digests take CPython's
#: built-in SHA-256, and ElementTree, which only a document outside the
#: plain subset needs.
ON_DEMAND = {"hashlib", "_hashlib", "xml.etree.ElementTree"}


def footprint(*argv: object, run_as: str = _COMMAND) -> tuple[int, str, set[str]]:
    """The exit code, the output and the modules added of one command, or
    of the statements `run_as`, run alone."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, run_as, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    result = json.loads(run.stdout)
    return result["code"], result["out"], set(result["added"])


def test_each_command_loads_only_what_it_uses(tmp_path):
    src = write_example(tmp_path / "ex.gxl")
    for argv in (("verify", src), ("fold", src, tmp_path / "out.gxl")):
        code, _, added = footprint(*argv)
        assert code == 0, argv
        assert "firmfold.isomorphism" in added, argv
        assert not added & ON_DEMAND, argv
    code, out, added = footprint("explore", src)
    assert code == 0
    assert out.startswith("states: 26\ntransitions: 44\nfinal_states: 1\n")
    assert not added & ON_DEMAND
    # the library's digest takes the built-in SHA-256 too
    _, _, added = footprint(
        run_as="from firmfold import build_min_plus_one, canonical_hash\n"
        "canonical_hash(build_min_plus_one(3, 5))"
    )
    assert "firmfold.isomorphism" in added
    assert not added & ON_DEMAND
    code, _, added = footprint("verify", FIXTURE)
    assert code == 0
    assert "xml.etree.ElementTree" in added


# Prints the digests of the states that `explore` finds from the document
# named by its argument, in discovery order, then its transitions.
_DISCOVERY = """
import sys
from pathlib import Path
from firmfold import CATALOG, explore, load
lts = explore(load(Path(sys.argv[1]).read_bytes()), CATALOG)
print("\\n".join(lts.states))
print(lts.transitions)
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # BlockKind and EdgeKind hash by identity, and strings by the hash
    # seed, so their hashes differ from run to run; no output may depend
    # on either.  Each command runs alone, as users run it.
    src = str(Path(cli.__file__).parents[1])
    example, six = write_example(tmp_path / "ex.gxl"), tmp_path / "six.gxl"
    six.write_bytes(save_native(diamond_chain(random.Random(0), 6)))
    outputs: dict[str, dict[str, bytes]] = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        out = tmp_path / seed
        out.mkdir()

        def run(*argv: object) -> bytes:
            done = subprocess.run(
                [sys.executable, *map(str, argv)],
                env=env, capture_output=True, timeout=60, check=True,
            )
            return done.stdout

        run("-m", "firmfold.cli", "fold", example, out / "ex.gxl", "--trace", out / "ex.txt")
        run("-m", "firmfold.cli", "fold", six, out / "six.gxl", "--trace", out / "six.txt")
        run("-m", "firmfold.cli", "explore", example, "--report", out / "lts.txt")
        outputs[seed] = {path.name: path.read_bytes() for path in out.iterdir()}
        outputs[seed]["digests"] = run("-c", _DISCOVERY, example)
    assert sorted(outputs["0"]) == ["digests", "ex.gxl", "ex.txt", "lts.txt", "six.gxl", "six.txt"]
    assert outputs["0"]["lts.txt"].startswith(b"states: 26\n")
    assert outputs["0"] == outputs["1"]


# Installs the benchmark's tracer, which replaces firmfold's functions by
# name, then folds and explores the example through the wrapped names.
_TRACED = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import firmfold, firmfold.cli
traced = tracer.Tracer()
traced.install(firmfold)
traced.active = True
g = firmfold.build_min_plus_one(3, 5, "lt")
assert firmfold.engine.fold(g, firmfold.rules.CATALOG).steps == 10
assert len(firmfold.engine.explore(g, firmfold.rules.CATALOG).states) == 26
print(traced.counters["engine.steps"], traced.counters["engine.explore_states"])
"""


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # A rename or removal of a name the tracer wraps (say
    # `engine.canonical_hash`) fails here rather than at the next traced
    # benchmark.  The tracer is imported from its file and not written to.
    root = Path(cli.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-c", _TRACED, str(root / "perfbench" / "tracer.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["10", "26"]
