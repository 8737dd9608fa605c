"""The three workloads: their programs, their timed commands and their checks.

One client runs a closed loop: it issues a program's next command only
after the previous one returned, and starts the next program only after
the last command of this one.  `fold`, `explore` and `verify` run in
process through `firmfold.cli.main` on GXL files, as users run them;
`evaluate`, `canonical_hash`, `gxl.load` and `save_native` have no
command of their own and are called through the library.  Only the
commands are timed.  The checks run untimed between programs, and in
full only on the first pass: later passes must reproduce the first
pass's output bytes, which checks the byte-deterministic GXL contract.

Every exception a command raises counts as a failed operation under its
type name, whatever its class; so do an unexpected exit code (recorded
as `exit<code>`) and a wrong output (recorded as `wrong:<what>`, which
also makes the run incorrect).

The median and the tail percentile of the pooled per-program times
would jump with every fluctuation if they fell in the gap between two
programs of different cost.  So fold-ladder and explore-small have an
odd number of programs, with three programs of one shape at the median
and four of another at the tail percentile (see `run.tail_percentile`).
The percentiles are taken over samples scaled to a reference speed; see
`run.reference_loop`.

Library calls go through module attributes at call time
(`ff.interp.evaluate`, not an imported name), so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

from programs import Plan, add_chain, diamond_chain, to_native_gxl

FIRM_FIXTURE = Path("tests") / "data" / "min_plus_one_firm.gxl"

# Folding a branch whose true arm is dropped renumbers the merge block's
# entries and costs more than dropping the false arm.  Diamond chains
# take their branches alternately, so that a workload's cost does not
# depend on how many comparisons a seed happens to make true.
ALTERNATE = (True, False)


@dataclass
class Program:
    pid: str
    path: Path
    expected: int
    props: dict
    #: containment findings of `verify` on the input and on the fold output
    input_findings: int = 0
    output_findings: int = 0
    #: (states, transitions, final states) that `explore` must report
    frozen_lts: tuple[int, int, int] | None = None


@dataclass
class Outcome:
    """What one program's commands did in one pass."""

    elapsed: float = 0.0
    errors: dict[str, str] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    values: dict[str, object] = field(default_factory=dict)

    def fail(self, op: str, what: str) -> None:
        self.errors.setdefault(op, f"wrong:{what}")
        self.wrong.append(f"{op}: {what}")


class Capture:
    """Keeps the last value a wrapped function returned.

    The CLI prints summaries only; the checks need the `FoldResult` and
    the `Lts` themselves.
    """

    def __init__(self) -> None:
        self.last = None

    def around(self, fn):
        def captured(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last

        return captured


def _timed(out: Outcome, op: str, fn, *args):
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # every failure counts, whatever its class
        out.errors[op] = type(exc).__name__
        return None
    finally:
        out.elapsed += time.perf_counter() - start


def _cli(ff: ModuleType, out: Outcome, op: str, argv: list[str], code: int) -> str | None:
    stdout, stderr = io.StringIO(), io.StringIO()

    def run() -> int:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            return ff.cli.main(argv)

    got = _timed(out, op, run)
    if got is None:
        return None
    if got != code:
        out.errors[op] = f"exit{got}"
        return None
    return stdout.getvalue()


def _write(plan: Plan, rng: random.Random, directory: Path, docs: dict[str, bytes]) -> Path:
    path = directory / f"{plan.name}.gxl"
    data = to_native_gxl(plan, rng)
    path.write_bytes(data)
    docs[plan.name] = data
    return path


def _from_plan(plan: Plan, rng: random.Random, directory: Path, docs: dict) -> Program:
    # `verify` reports every operation outside a block under containment;
    # folding removes the constants among them, but no rule removes a Jmp.
    blockless = [kind for _, kind, _, block in plan.ops if block is None]
    return Program(
        plan.name,
        _write(plan, rng, directory, docs),
        plan.expected,
        dict(plan.props),
        input_findings=len(blockless),
        output_findings=blockless.count("Jmp"),
    )


def _example(ff: ModuleType, directory: Path, docs: dict) -> Program:
    """The paper's example, `(3 < 5 ? 3 : 5) + 1`, built by the library."""
    data = ff.gxl.save_native(ff.rules.build_min_plus_one(3, 5))
    path = directory / "example.gxl"
    path.write_bytes(data)
    docs["example"] = data
    props = {"elements": 28, "diamonds": 1, "dead_entries": 0, "dangling_entries": 0, "adds": 1}
    return Program("example", path, (3 if 3 < 5 else 5) + 1, props)


class Workload:
    name = ""
    ops_per_program = 1

    def setup(self, ff: ModuleType, seed: int, directory: Path, root: Path):
        """Generate the programs and write their inputs; returns (programs, documents)."""
        raise NotImplementedError

    def run(self, ff: ModuleType, prog: Program, work: Path, capture: Capture) -> Outcome:
        raise NotImplementedError

    def check(self, ff: ModuleType, prog: Program, out: Outcome, reference: dict) -> None:
        """Check `out`; `reference` holds the first pass's outputs for this program."""
        raise NotImplementedError


class FoldLadder(Workload):
    """`verify`, then `fold --trace`, on diamond chains over a size ladder."""

    name = "fold-ladder"
    ops_per_program = 2
    # Copies of one length are spread over the pass, so that a slow
    # spell of the machine does not hit them all.
    LADDER = (12, 4, 8, 5, 12, 6, 22, 8, 7, 12, 9, 10, 8, 11, 12)
    # (diamonds, dead entries, dangling entries)
    DANGLING = ((2, (), (1,)), (3, (0,), (1, 2)))

    def setup(self, ff, seed, directory, root):
        rng = random.Random(f"{self.name}/{seed}")
        docs: dict[str, bytes] = {}
        programs = []
        for rung, n in enumerate(self.LADDER):
            # Chains of an odd length have dead entry blocks, a quarter of
            # their diamonds.
            dead = frozenset(rng.sample(range(n), n // 4)) if n % 2 else frozenset()
            plan = diamond_chain(f"ladder{rung}-d{n}", rng, n, dead=dead, branches=ALTERNATE)
            programs.append(_from_plan(plan, rng, directory, docs))
        for index, (n, dead, dangling) in enumerate(self.DANGLING):
            plan = diamond_chain(
                f"dangling{index}-d{n}",
                rng,
                n,
                dead=frozenset(dead),
                dangling=frozenset(dangling),
                branches=ALTERNATE,
            )
            programs.append(_from_plan(plan, rng, directory, docs))
        example = _example(ff, directory, docs)
        # The fixture is the same program in the attributed dialect.
        fixture = Program("firm-fixture", root / FIRM_FIXTURE, example.expected, dict(example.props))
        programs += [example, fixture]
        return programs, docs

    def run(self, ff, prog, work, capture):
        out = Outcome()
        code = 1 if prog.input_findings else 0
        out.values["verify"] = _cli(ff, out, "verify", ["verify", str(prog.path)], code)
        result = work / f"{prog.pid}.out.gxl"
        trace = work / f"{prog.pid}.trace.txt"
        capture.last = None
        argv = ["fold", str(prog.path), str(result), "--trace", str(trace)]
        if _cli(ff, out, "fold", argv, 0) is not None:
            out.values["fold"] = (result.read_bytes(), trace.read_text(), capture.last)
        return out

    def check(self, ff, prog, out, reference):
        report = out.values.get("verify")
        if report is not None:
            lines = report.splitlines()
            if len(lines) != prog.input_findings or not all(
                line.startswith("containment:") for line in lines
            ):
                out.fail("verify", "findings on the input")
        if "fold" not in out.values:
            return
        data, trace, result = out.values.pop("fold")
        if reference:
            if (data, trace) != reference["fold"]:
                out.fail("fold", "output differs from the first pass")
            return
        reference["fold"] = (data, trace)
        g = ff.gxl.load(data)
        findings = ff.verifier.verify(g)
        if len(findings) != prog.output_findings or any(
            v.check != "containment" for v in findings
        ):
            out.fail("fold", "verify findings on the output")
        if any(rule.matcher(g) for rule in ff.rules.CATALOG):
            out.fail("fold", "a rule still matches the output")
        if result is None or not (len(trace.splitlines()) == result.steps == len(result.trace)):
            out.fail("fold", "trace length differs from the step count")
        if ff.interp.evaluate(g) != prog.expected:
            out.fail("fold", "output evaluates to the wrong value")


class ExploreSmall(Workload):
    """`explore` on small branch-and-merge programs and the paper's example."""

    name = "explore-small"
    ops_per_program = 1
    T, F = (True,), (False,)
    # (diamonds, dead entries, diamonds with an Add, dangling entries,
    # branches taken); the state count depends on these and not on the seed.
    SHAPES = (
        (1, (), (), (), T),
        (1, (), (), (), F),
        (1, (), (0,), (), T),
        (1, (), (0,), (), F),
        (1, (0,), (), (), T),
        (1, (0,), (), (), F),
        (1, (), (), (0,), T),
        (1, (), (), (0,), F),
        (1, (), (), (0,), T),
        (1, (0,), (0,), (), T),
        (1, (0,), (0,), (), F),
        (1, (), (0,), (0,), T),
        (1, (), (0,), (0,), F),
        (1, (), (0,), (0,), T),
        (1, (), (0,), (0,), F),
        (2, (), (1,), (), (True, True)),
    )

    def setup(self, ff, seed, directory, root):
        rng = random.Random(f"{self.name}/{seed}")
        docs: dict[str, bytes] = {}
        programs = []
        for index, (n, dead, adds, dangling, branches) in enumerate(self.SHAPES):
            plan = diamond_chain(
                f"small{index}-d{n}",
                rng,
                n,
                dead=frozenset(dead),
                adds=frozenset(adds),
                dangling=frozenset(dangling),
                branches=branches,
            )
            programs.append(_from_plan(plan, rng, directory, docs))
        example = _example(ff, directory, docs)
        example.frozen_lts = (26, 44, 1)
        programs.append(example)
        return programs, docs

    def run(self, ff, prog, work, capture):
        out = Outcome()
        capture.last = None
        report = _cli(ff, out, "explore", ["explore", str(prog.path)], 0)
        if report is not None:
            out.values["explore"] = (report, capture.last)
        return out

    def check(self, ff, prog, out, reference):
        if "explore" not in out.values:
            return
        report, lts = out.values.pop("explore")
        fields = dict(line.split(": ", 1) for line in report.splitlines())
        states = int(fields["states"])
        prog.props["explore_states"] = states
        if fields["final_states_isomorphic"] != "true":
            out.fail("explore", "final states are not isomorphic")
        counts = (states, int(fields["transitions"]), int(fields["final_states"]))
        if prog.frozen_lts is not None and counts != prog.frozen_lts:
            out.fail("explore", f"LTS {counts} differs from {prog.frozen_lts}")
        if reference:
            if report != reference["explore"]:
                out.fail("explore", "report differs from the first pass")
            return
        reference["explore"] = report
        folded = ff.engine.fold(ff.gxl.load(prog.path.read_bytes()), ff.rules.CATALOG).graph
        for digest in lts.final:
            final = lts.states[digest]
            if ff.interp.evaluate(final) != prog.expected:
                out.fail("explore", "a final state evaluates to the wrong value")
            if not ff.isomorphism.is_isomorphic(final, folded):
                out.fail("explore", "a final state differs from the fold result")


class AnalyzeLarge(Workload):
    """Read-only analysis of large programs: load, verify, evaluate, hash, save."""

    name = "analyze-large"
    ops_per_program = 5
    # (Adds, one shared constant): the shared chains make canonical_hash
    # refine once per link; the chains past about 480 Adds are deeper
    # than `evaluate`'s recursion can follow.
    ADD_CHAINS = ((150, True), (300, True), (400, True), (520, False), (640, False))
    DIAMOND_CHAINS = (43, 65, 87, 150)

    def setup(self, ff, seed, directory, root):
        rng = random.Random(f"{self.name}/{seed}")
        docs: dict[str, bytes] = {}
        programs = []
        for adds, shared in self.ADD_CHAINS:
            kind = "shared" if shared else "distinct"
            plan = add_chain(f"adds-{kind}{adds}", rng, adds, shared=shared)
            programs.append(_from_plan(plan, rng, directory, docs))
        for n in self.DIAMOND_CHAINS:
            dead = frozenset(rng.sample(range(n), n // 7))
            plan = diamond_chain(f"chain-d{n}", rng, n, dead=dead, branches=ALTERNATE)
            programs.append(_from_plan(plan, rng, directory, docs))
        return programs, docs

    def run(self, ff, prog, work, capture):
        out = Outcome()
        g = _timed(out, "load", lambda: ff.gxl.load(prog.path.read_bytes()))
        out.values["verify"] = _cli(ff, out, "verify", ["verify", str(prog.path)], 0)
        if g is None:
            for op in ("evaluate", "hash", "save"):
                out.errors[op] = "NotRun"
            return out
        out.values["evaluate"] = _timed(out, "evaluate", ff.interp.evaluate, g)
        out.values["hash"] = _timed(out, "hash", ff.isomorphism.canonical_hash, g)
        out.values["save"] = _timed(out, "save", ff.gxl.save_native, g)
        return out

    def check(self, ff, prog, out, reference):
        if out.values.get("verify"):
            out.fail("verify", "findings on a well-formed input")
        if "evaluate" not in out.errors and out.values.get("evaluate") != prog.expected:
            out.fail("evaluate", "wrong value")
        digest, saved = out.values.get("hash"), out.values.get("save")
        if reference:
            if "hash" not in out.errors and digest != reference["hash"]:
                out.fail("hash", "digest differs from the first pass")
            if "save" not in out.errors and saved != reference["save"]:
                out.fail("save", "document differs from the first pass")
            return
        reference["hash"], reference["save"] = digest, saved
        if saved is not None and ff.gxl.save_native(ff.gxl.load(saved)) != saved:
            out.fail("save", "document does not round-trip")


WORKLOADS = {w.name: w for w in (FoldLadder(), ExploreSmall(), AnalyzeLarge())}
