"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 6 --seeds 1 2 3 --out BENCH_change.json

For every workload of the change's `BENCHMARK.json` and every pair, it
runs `perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in each checkout, one process at a time: the parent first in even
pairs, the change first in odd ones.  Pair i uses seed
`seeds[i % len(seeds)]`, the same seed on both sides.  Every run reads
and writes no bytecode cache: it runs with `PYTHONDONTWRITEBYTECODE=1`
and `PYTHONPYCACHEPREFIX` set to a new, empty directory, so each fresh
import of firmfold compiles its source on both sides, whatever
`__pycache__` directories a checkout holds, and `setup_s` measures
compilation alike.

The JSON file it writes holds, for each workload and end-to-end metric,
each side's median, quartiles and run count, and the change's wins: the
pairs in which it reads better than the parent, ties counting for
neither side and a pair with a crashed run counting as a loss; a run
crashed when it exited with an error, timed out or printed no JSON
result, and the file records why.  `claim`
says whether every run of the change is correct, its runs fail no more
operations than the parent's, it wins at least nine tenths of the pairs
run, and its median is better than the parent's by more than the
parent's interquartile range; `median_change` is the change's median
over the parent's, less one, beside the metric's bound, and `verdict`
says whether the change stays within that bound (see `verdict`).  The
file also records each checkout's commit (with `dirty` if its tracked
files differ from it) and a digest of its `src` tree, the Python
version, the CPU count, the settings, and every run's `correct`,
`failed` and values.
Standard library only.
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
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def checkout_info(root: Path) -> dict:
    """The commit a checkout is at, whether it differs from it, and its sources' digest."""

    def git(*args: str) -> str | None:
        try:
            run = subprocess.run(
                ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return run.stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def crashed(error: str) -> dict:
    """A run that gave no result, with the reason."""
    return {"correct": False, "failed": None, "error": error}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `root`: its correctness, failures and metric values.

    It runs with no bytecode cache to read or write (see the module
    docstring).  A run that exits with an error, times out, or whose
    last line of output is not a JSON result is recorded as crashed
    (`crashed`), so the pairs already run are kept.
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    timeout = 20 * seconds + 600
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        try:
            run = subprocess.run(
                command, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return crashed(f"timed out after {timeout} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return crashed(run.stderr.strip()[-2000:])
    try:
        result = json.loads(lines[-1])
        return {
            "correct": result["correct"],
            "failed": result["failed"],
            "attempted": result["attempted"],
            "values": {name: m["value"] for name, m in result["metrics"].items()},
        }
    except (ValueError, LookupError, TypeError, AttributeError):
        return crashed(f"the last line of output is not a JSON result: {lines[-1][:200]!r}")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """The no-regression verdict on one metric, from each side's run values.

    `worse` when the change's median is worse than the parent's by more
    than the metric's `bound`, a fraction of the parent's median.
    Otherwise `unresolved` when the parent's interquartile range exceeds
    that fraction of its median, so that such a regression could not be
    told from the spread, unless every run of the change reads better
    than every run of the parent.  Otherwise `within_bound`.
    """
    sign = 1 if metric["better"] == "lower" else -1
    p, c = summary(parent), summary(change)
    allowed = metric["bound"] * p["median"]
    if sign * (c["median"] - p["median"]) > allowed:
        return "worse"
    every_run_better = all(sign * (x - y) > 0 for x in parent for y in change)
    if p["q3"] - p["q1"] > allowed and not every_run_better:
        return "unresolved"
    return "within_bound"


def compare(runs: list[dict], metric: dict) -> dict:
    """Each side's summary of one metric over the pairs, and the change's wins.

    A pair in which either run crashed counts as a loss.  No claim is
    made if any of the change's runs is not `correct`, or if its runs
    fail more operations in all than the parent's.
    """
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    sides = {"parent": runs[0::2], "change": runs[1::2]}
    values = {side: [r["values"][name] for r in rs if "values" in r] for side, rs in sides.items()}
    if min(map(len, values.values())) < 2:
        return {"n_pairs": len(sides["change"])}
    wins = sum(
        1 for p, c in zip(*sides.values())
        if "values" in p and "values" in c and sign * (p["values"][name] - c["values"][name]) > 0
    )
    parent, change = summary(values["parent"]), summary(values["change"])
    gain = sign * (parent["median"] - change["median"])
    failed = {side: sum(r["failed"] or 0 for r in rs) for side, rs in sides.items()}
    sound = all(r["correct"] for r in sides["change"]) and failed["change"] <= failed["parent"]
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "n_pairs": len(sides["change"]),
        "wins": wins,
        "median_change": change["median"] / parent["median"] - 1 if parent["median"] else None,
        "claim": sound and wins >= 0.9 * len(sides["change"]) and gain > parent["q3"] - parent["q1"],
        "verdict": verdict(values["parent"], values["change"], metric),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (at least 10)")
    parser.add_argument("--seconds", type=float, required=True, help="each run's --seconds")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="seeds, cycled by pair")
    parser.add_argument("--workloads", nargs="+", help="default: all of BENCHMARK.json's")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    roots = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    report: dict = {
        "checkouts": {side: checkout_info(root) for side, root in roots.items()},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in workloads:
        runs: list[dict] = []
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            done = {side: run_once(roots[side], workload, seed, args.seconds) for side in order}
            for side in SIDES:
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "first": side == order[0], **done[side]})
            print(f"{workload} pair {pair + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": {m["name"]: compare(runs, m) for m in bench["end_to_end"]},
            "runs": runs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            if "parent" in m:
                print(f"{workload:14} {name:16} parent {m['parent']['median']:.4g}  "
                      f"change {m['change']['median']:.4g} {m['unit']}  "
                      f"wins {m['wins']}/{m['n_pairs']}  claim {m['claim']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
