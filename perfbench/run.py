"""Benchmark for firmfold: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fold-ladder --seed 1 --seconds 30 --trace 0

The run imports firmfold from the checkout's `src`, generates the
workload's programs from the seed and writes them as GXL (set-up, done
five times and timed), then makes passes over the programs for
`--seconds` seconds, at least three of them, one client in a closed
loop.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` the first two passes are untraced and the rest are traced,
and it reports the per-layer metrics and the tracing overhead.  It prints one
row per workload and, last, one JSON line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Details (per-program properties, failures by type, every rule's
application count, the spans of a traced run) go to
`.perfbench/<workload>-seed<seed>-trace<0|1>/`.  `--workload all` runs
the three workloads one after another in this process and prints
their rows; it is for reading, not for comparing commits.

It exits with code 2, printing no result, when the checkout has no
firmfold sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from programs import add_chain, diamond_chain, to_native_gxl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Capture  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
#: Time of `reference_loop` on a machine of reference speed.
REFERENCE_S = 0.008
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "cmd_p50_ref_ms": "ms",
    "cmd_tail_ref_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(programs: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in a minimal run."""
    return math.floor(100 * (1 - 10 / (programs * MIN_PASSES)))


def fresh_import():
    """Import firmfold from the checkout, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "firmfold" or n.startswith("firmfold.")]:
        del sys.modules[name]
    ff = importlib.import_module("firmfold")
    importlib.import_module("firmfold.cli")
    if Path(ff.__file__).resolve().parent != (ROOT / "src" / "firmfold").resolve():
        raise ImportError(f"firmfold was imported from {ff.__file__}, not from the checkout")
    return ff


def self_test(ff) -> list[str]:
    """Cross-check the generator's oracle against `evaluate` on small programs."""
    rng = random.Random("self-test")
    problems = []
    for index in range(40):
        n = 1 + index % 4
        dead = frozenset(rng.sample(range(n), rng.randint(0, n)))
        plans = [diamond_chain(f"st{index}", rng, n, dead=dead), add_chain(f"sa{index}", rng, index)]
        for plan in plans:
            g = ff.gxl.load(to_native_gxl(plan, rng))
            if ff.verifier.verify(g) or ff.interp.evaluate(g) != plan.expected:
                problems.append(f"self-test: {plan.name} disagrees with evaluate")
    return problems


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds firmfold does: dict copies, scans, sorts.

    The machine this benchmark was built on is shared, and its speed
    drifts by a quarter over tens of seconds.  Timing this loop before
    every set-up and every program lets a run scale its times to a
    machine on which the loop takes `REFERENCE_S`.
    """
    items = [(i * 7919) % 1009 for i in range(6000)]
    table = dict(enumerate(items))
    total = 0
    for _ in range(4):
        copy = dict(table)
        picked = [k for k, v in copy.items() if v & 1]
        total += sum(sorted(picked, key=lambda k: (copy[k], k))[:100])
    return total


def time_metrics(times: list[list[float]], pct: int) -> tuple[float, float, float]:
    """Pass time (s), median and `pct` percentile (ms) of per-program, per-pass times.

    A pass's time is estimated as the sum of each program's median over
    passes, which a program slowed once does not move.
    """
    pooled = [t for program in times for t in program]
    tail = statistics.quantiles(pooled, n=100, method="inclusive")[pct - 1]
    return sum(statistics.median(t) for t in times), 1000 * statistics.median(pooled), 1000 * tail


def log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    out_dir = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs, work = out_dir / "inputs", out_dir / "outputs"
    inputs.mkdir(parents=True)
    work.mkdir()

    problems: list[str] = []
    setup_times, setup_loops, documents = [], [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        reference_loop()
        setup_loops.append(time.perf_counter() - start)
        start = time.perf_counter()
        ff = fresh_import()
        programs, docs = workload.setup(ff, seed, inputs, ROOT)
        setup_times.append(time.perf_counter() - start)
        if documents is not None and docs != documents:
            problems.append("set-up: the same seed generated different inputs")
        documents = docs
    problems += self_test(ff)

    capture = Capture()
    ff.cli.fold = capture.around(ff.cli.fold)
    ff.cli.explore = capture.around(ff.cli.explore)
    tracer = Tracer()
    rule_names = tuple(rule.name for rule in ff.rules.CATALOG)
    references: dict[str, dict] = {p.pid: {} for p in programs}
    failures: dict[str, int] = {}
    by_program: dict[str, list[float]] = {p.pid: [] for p in programs}
    scales: list[float] = []
    untraced_walls: list[float] = []
    traced: list[dict] = []
    attempted = failed = 0

    began = time.perf_counter()
    while True:
        # A traced run warms up with two untraced passes and compares the
        # traced ones with the second: the first pass of a process is
        # slower, which would hide the tracing overhead.
        tracing = trace and len(untraced_walls) >= 2
        if tracing and not traced:
            tracer.install(ff)
        first_span = len(tracer.spans)
        pass_start = time.perf_counter()
        wall = 0.0
        reference = []
        for prog in programs:
            if not tracing:
                start = time.perf_counter()
                reference_loop()
                reference.append(time.perf_counter() - start)
            tracer.program, tracer.active = prog.pid, tracing
            outcome = workload.run(ff, prog, work, capture)
            tracer.active = False
            workload.check(ff, prog, outcome, references[prog.pid])
            wall += outcome.elapsed
            if not tracing:
                by_program[prog.pid].append(outcome.elapsed)
            attempted += workload.ops_per_program
            failed += len(outcome.errors)
            for op, kind in outcome.errors.items():
                key = f"{prog.pid}:{op}:{kind}"
                failures[key] = failures.get(key, 0) + 1
            problems += [f"{prog.pid}: {w}" for w in outcome.wrong]
        if tracing:
            metrics = tracer.layer_metrics(rule_names)
            metrics["trace.wall_s"] = wall
            metrics["trace.self_coverage"] = sum(metrics[f"{l}.self_s"] for l in LAYERS) / wall
            folds = tracer.program_durations("engine.fold", first_span)
            ladder = [(p.props["elements"], folds[p.pid]) for p in programs
                      if p.pid.startswith("ladder") and p.pid in folds]
            metrics["engine.fold_exponent"] = log_slope(ladder) if len(ladder) > 1 else 0.0
            traced.append(metrics)
            tracer.reset()
        else:
            untraced_walls.append(wall)
            scales.append(REFERENCE_S / statistics.median(reference))
        passes = len(untraced_walls) + len(traced)
        elapsed = time.perf_counter() - began
        last = time.perf_counter() - pass_start
        if passes >= MIN_PASSES and elapsed + last > seconds:
            break

    result: dict = {"correct": not problems, "attempted": attempted, "failed": failed}
    if trace:
        keys = traced[0].keys()
        metrics = {k: statistics.median(m[k] for m in traced) for k in keys}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls[1:])
        result["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
        tracer.write(out_dir / "spans.jsonl")
    else:
        pct = tail_percentile(len(programs))
        raw = list(by_program.values())
        # Each program's time in pass i scaled by pass i's reference speed.
        scaled = [[t * k for t, k in zip(times, scales)] for times in raw]
        wall, p50, tail = time_metrics(raw, pct)
        wall_ref, p50_ref, tail_ref = time_metrics(scaled, pct)
        setup = statistics.median(setup_times)
        values = {
            "setup_s": setup * REFERENCE_S / statistics.median(setup_loops),
            "wall_ref_s": wall_ref,
            "cmd_p50_ref_ms": p50_ref,
            "cmd_tail_ref_ms": tail_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        result["measured"] = {"setup_s": setup, "wall_s": wall, "cmd_p50_ms": p50, "cmd_tail_ms": tail}
        result["reference_ms"] = [1000 * REFERENCE_S / k for k in scales]
        beyond = sum(1 for program in raw for t in program if 1000 * t > tail)
        result["tail"] = {"percentile": pct, "samples": sum(map(len, raw)), "beyond": beyond}
    result["passes"] = {"untraced": len(untraced_walls), "traced": len(traced)}
    result["failures"] = failures
    result["problems"] = problems[:50]
    for p in programs:
        p.props["times_ms"] = [1000 * t for t in by_program[p.pid]]
    result["programs"] = {p.pid: p.props for p in programs}
    (out_dir / "report.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield", "coverage", "exponent")):
        return "ratio"
    if metric == "gxl.bytes":
        return "bytes"
    return "count"


def row(name: str, result: dict) -> str:
    """One human-readable line: the metrics by name and unit, and the failures."""
    metrics = result["metrics"]
    if "tail" not in result:
        shown = [f"{layer}.self_s" for layer in LAYERS]
        shown += ["trace.wall_s", "trace.overhead_s", "trace.self_coverage"]
        metrics = {k: metrics[k] for k in shown}
    parts = [f"{name:14}"]
    parts += [f"{k}={m['value']:.4g} {m['unit']}" for k, m in metrics.items()]
    if "measured" in result:
        m = result["measured"]
        parts.append(f"(as measured: setup_s={m['setup_s']:.4g} s  wall_s={m['wall_s']:.4g} s  "
                     f"cmd_p50_ms={m['cmd_p50_ms']:.4g} ms  "
                     f"cmd_tail_ms={m['cmd_tail_ms']:.4g} ms; reference loop "
                     f"{statistics.median(result['reference_ms']):.3g} ms)")
    if "tail" in result:
        t = result["tail"]
        parts.append(f"(tail p{t['percentile']} of {t['samples']} samples, {t['beyond']} beyond)")
    ratio = result["failed"] / result["attempted"]
    parts.append(f"failed_ratio={ratio:.4f} ({result['failed']}/{result['attempted']})")
    if result["failures"]:
        kinds = sorted({key.rsplit(":", 1)[1] for key in result["failures"]})
        parts.append(f"failure types: {', '.join(kinds)}")
    return "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "firmfold" / "__init__.py").is_file():
        print(f"error: no firmfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run(name, args.seed, args.seconds, bool(args.trace))
        print(row(name, results[name]), flush=True)
    if args.trace:
        for name, result in results.items():
            applied = {k.split(".")[1]: int(v["value"]) for k, v in result["metrics"].items()
                       if k.endswith(".applied")}
            print(f"{name} rule applications: {json.dumps(applied)}")
            print(f"{name} tracing overhead: "
                  f"{result['metrics']['trace.overhead_s']['value']:.3f} s per pass")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
