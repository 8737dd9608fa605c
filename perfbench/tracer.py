"""Span tracing around firmfold's layers, installed from outside the package.

`Tracer.install` replaces, by attribute assignment, the public functions
of each layer with timing wrappers: module functions, the names other
modules imported from them (`firmfold.cli.fold` is `engine.fold` under
another name), the `ProgramGraph` methods, and every `CATALOG` rule's
matcher and applier through a wrapped catalog.  firmfold's sources are
not touched.

Each wrapped call is a span with a name, start, end, parent span and
program id.  A layer's self time is the time its spans cover minus the
time their child spans cover, so self times over all layers add up to
the traced time less the harness's own time.  Spans are kept in memory
and written out when the run ends, except those of `ProgramGraph`
methods: a fold of a few hundred elements makes millions of graph
queries, so those are aggregated per method (calls and self time)
instead of stored one by one.  While `active` is false the
wrappers only forward the call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

LAYERS = ("cli", "gxl", "verifier", "engine", "rules", "graph", "isomorphism", "interp")

GRAPH_QUERIES = (
    "op_kind",
    "block_kind",
    "blocks_of_kind",
    "data_inputs",
    "data_users",
    "control_preds",
    "control_succs",
    "members",
    "element_count",
)
#: Queries that scan every Edge node of the graph.
EDGE_SCANS = ("data_inputs", "data_users", "control_preds", "control_succs")
GRAPH_MUTATORS = ("add_block", "add_op", "connect", "delete_node")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.program: str | None = None
        self.stack: list[list] = []
        self.depth: Counter[str] = Counter()
        self.stats: dict[str, list] = {}
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._next_span = 0

    def reset(self) -> None:
        """Clear the per-pass aggregates; stored spans are kept for the run."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0]
        self.counters.clear()

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name: str, *, keep_span: bool = True, before=None, after=None):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0])  # calls, self time
        depth = self.depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0.0, tracer._next_span]
            tracer._next_span += 1
            stack.append(frame)
            depth[name] += 1
            if before is not None:
                before(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if keep_span:
                    tracer.spans.append(
                        (frame[1], name, start, end, parent[1] if parent else None, tracer.program)
                    )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, ff: ModuleType) -> None:
        """Wrap the layers of the imported `firmfold` package `ff`."""
        cli, engine, gxl, interp = ff.cli, ff.engine, ff.gxl, ff.interp
        iso, rules, verifier, graph = ff.isomorphism, ff.rules, ff.verifier, ff.graph
        count = self.counters

        def load_bytes(args):
            count["gxl.bytes"] += len(args[0])

        def saved_bytes(args, result):
            count["gxl.bytes"] += len(result)

        def violations(args, result):
            count["verifier.violations"] += len(result)

        def fold_steps(args, result):
            count["engine.steps"] += result.steps

        def explored(args, result):
            count["engine.explore_states"] += len(result.states)
            count["engine.explore_transitions"] += len(result.transitions)

        def successor(args):
            if self.depth["engine.explore"]:
                count["engine.explore_successors"] += 1

        wrapped: dict[int, object] = {}

        def replace(module, attr: str, name: str, **hooks) -> None:
            original = getattr(module, attr)
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self.wrap(original, name, **hooks)
            setattr(module, attr, wrapped[key])

        for module, attr in ((gxl, "load"), (cli, "load")):
            replace(module, attr, "gxl.load", before=load_bytes)
        for module, attr in ((gxl, "save_native"), (cli, "save_native")):
            replace(module, attr, "gxl.save_native", after=saved_bytes)
        for attr in ("detect_dialect", "load_native", "import_firm_gxl"):
            replace(gxl, attr, f"gxl.{attr}")
        for module in (gxl, cli):
            replace(module, "export_dot", "gxl.export_dot")
        for module in (verifier, cli):
            replace(module, "verify", "verifier.verify", after=violations)
        for module in (engine, cli):
            replace(module, "fold", "engine.fold", after=fold_steps)
            replace(module, "explore", "engine.explore", after=explored)
        replace(engine, "apply", "engine.apply", before=successor)
        replace(engine, "_normalize_all", "engine.normalize_all")
        replace(engine, "normalize_positions", "engine.normalize_positions")
        replace(engine.Lts, "final_states_isomorphic", "engine.final_states_isomorphic")
        for module in (iso, engine):
            replace(module, "canonical_hash", "isomorphism.canonical_hash")
            replace(module, "is_isomorphic", "isomorphism.is_isomorphic")
        replace(interp, "evaluate", "interp.evaluate")
        replace(cli, "main", "cli.main")

        catalog = []
        for rule in rules.CATALOG:

            def found(args, result, rule=rule.name):
                count[f"rules.{rule}.found"] += len(result)
                if self.depth["engine.apply"]:
                    count["rules.recheck_calls"] += 1

            def applied(args, result, rule=rule.name):
                count[f"rules.{rule}.applied"] += 1

            matcher = self.wrap(rule.matcher, f"rules.{rule.name}.match", after=found)
            applier = self.wrap(rule.applier, f"rules.{rule.name}.apply", after=applied)
            # Appliers re-run their own matcher through the module-level
            # name; point that name at the wrapper so the re-check counts.
            for attr, value in list(vars(rules).items()):
                if value is rule.matcher:
                    setattr(rules, attr, matcher)
            catalog.append(type(rule)(rule.name, rule.priority, matcher, applier))
        rules.CATALOG = cli.CATALOG = tuple(catalog)

        def scanned(args):
            count["graph.edges_scanned"] += len(args[0].edge_nodes)

        cls = graph.ProgramGraph
        for attr in GRAPH_QUERIES + GRAPH_MUTATORS + ("copy",):
            hook = {"before": scanned} if attr in EDGE_SCANS else {}
            setattr(cls, attr, self.wrap(getattr(cls, attr), f"graph.{attr}", keep_span=False, **hook))

    # -- results --------------------------------------------------------

    def _sum(self, names, field: int) -> float:
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def layer_metrics(self, rule_names: tuple[str, ...]) -> dict[str, float]:
        """Per-layer counts and self times of the current pass."""
        s, c = self.stats, self.counters

        def calls(name: str) -> int:
            return s[name][0] if name in s else 0

        def self_s(name: str) -> float:
            return s[name][1] if name in s else 0.0

        queries = [f"graph.{q}" for q in GRAPH_QUERIES]
        mutators = [f"graph.{m}" for m in GRAPH_MUTATORS]
        m: dict[str, float] = {
            "graph.copy_calls": calls("graph.copy"),
            "graph.copy_s": self_s("graph.copy"),
            "graph.query_calls": self._sum(queries, 0),
            "graph.query_s": self._sum(queries, 1),
            "graph.edges_scanned": c["graph.edges_scanned"],
            "graph.mutate_calls": self._sum(mutators, 0),
            "graph.mutate_s": self._sum(mutators, 1),
        }
        matcher_calls = applied = 0
        for rule in rule_names:
            base = f"rules.{rule}"
            m[f"{base}.match_calls"] = calls(f"{base}.match")
            m[f"{base}.match_s"] = self_s(f"{base}.match")
            m[f"{base}.found"] = c[f"{base}.found"]
            m[f"{base}.applied"] = c[f"{base}.applied"]
            m[f"{base}.apply_s"] = self_s(f"{base}.apply")
            matcher_calls += calls(f"{base}.match")
            applied += c[f"{base}.applied"]
        m["rules.recheck_calls"] = c["rules.recheck_calls"]
        m["rules.match_yield"] = applied / matcher_calls if matcher_calls else 0.0
        successors = c["engine.explore_successors"]
        iso_calls = calls("isomorphism.is_isomorphic")
        m.update(
            {
                "engine.fold_self_s": self_s("engine.fold"),
                "engine.apply_self_s": self_s("engine.apply"),
                "engine.normalize_calls": calls("engine.normalize_positions"),
                "engine.normalize_s": self_s("engine.normalize_positions")
                + self_s("engine.normalize_all"),
                "engine.steps": c["engine.steps"],
                "engine.explore_self_s": self_s("engine.explore"),
                "engine.explore_states": c["engine.explore_states"],
                "engine.explore_transitions": c["engine.explore_transitions"],
                "engine.explore_successors": successors,
                "engine.dedup_ratio": iso_calls / successors if successors else 0.0,
                "isomorphism.hash_calls": calls("isomorphism.canonical_hash"),
                "isomorphism.hash_s": self_s("isomorphism.canonical_hash"),
                "isomorphism.iso_calls": iso_calls,
                "isomorphism.iso_s": self_s("isomorphism.is_isomorphic"),
                "gxl.load_s": sum(
                    self_s(f"gxl.{f}")
                    for f in ("load", "detect_dialect", "load_native", "import_firm_gxl")
                ),
                "gxl.save_s": self_s("gxl.save_native"),
                "gxl.bytes": c["gxl.bytes"],
                "verifier.verify_s": self_s("verifier.verify"),
                "verifier.violations": c["verifier.violations"],
                "interp.evaluate_s": self_s("interp.evaluate"),
            }
        )
        for layer in LAYERS:
            names = [n for n in s if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = self._sum(names, 1)
        return m

    def program_durations(self, name: str, first_span: int) -> dict[str, float]:
        """Total duration of the stored spans called `name` per program, from span `first_span` on."""
        out: dict[str, float] = {}
        for span_id, span_name, start, end, _, program in self.spans:
            if span_id >= first_span and span_name == name:
                out[program] = out.get(program, 0.0) + end - start
        return out

    def write(self, path: Path) -> None:
        """Write the stored spans as JSON lines."""
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, program in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "program": program}
                out.write(json.dumps(record) + "\n")
