"""Traced layer run: one workload's commands in a single process, with spans.

    python3 perfbench/layers.py --workload NAME --seed N --root DIR --work DIR \
        --as-limit BYTES --spans-file FILE

Each command runs through `permrex.cli.run(argv)` in this process, one after
another.  The public functions the CLI reaches in each module are first
wrapped, here, so that every call records a span (name, start, end, parent,
run id); the package itself carries no instrumentation.  Spans stay in
memory and are written to FILE as JSON at the end.  A layer's
time is the self time of its spans: duration minus the time its child spans
cover, so `verify.walk_s`, the self time of the certify call, is what is left
after the Glushkov and uniform-length calls nested in it.

`trace.wall_s` is the traced wall time of the commands.  `trace.overhead_s`
is what the tracing adds to it: the number of spans recorded times the cost
of one traced call, timed on a wrapped no-op in this process.  (The
difference of a traced and an untraced run is smaller than the run-to-run
noise, so it cannot measure that cost and can read below zero.)  A layer
metric that got no span or count is an error: a wrapped function that was
renamed or is no longer reached must not read as zero.  The last line of
standard output is one JSON object with the layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

# Metrics reported per workload, as (name, unit).  Times are self seconds.
VERIFY_METRICS = [
    ("verify.certify_s", "s"),
    ("verify.walk_s", "s"),
    ("verify.glushkov_s", "s"),
    ("verify.uniform_length_s", "s"),
    ("verify.positions", "count"),
    ("verify.follow_bytes", "bytes"),
    ("verify.words_tested", "count"),
    ("verify.accepted", "count"),
]
CLI_METRICS = [("cli.import_s", "s"), ("cli.self_s", "s")]
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
LAYER_METRICS = {
    "emit": CLI_METRICS + TRACE_METRICS + [
        ("construct.build_s", "s"),
        ("construct.symbols", "count"),
        ("construct.tree_nodes", "count"),
        ("construct.distinct_nodes", "count"),
        ("regex_ast.render_s", "s"),
        ("regex_ast.render_bytes", "bytes"),
        ("regex_ast.metrics_s", "s"),
    ],
    # Every built expression passes, so certify-built has no violations.
    "certify-built": CLI_METRICS + TRACE_METRICS + [("construct.build_s", "s")]
    + VERIFY_METRICS,
    "certify-files": CLI_METRICS + TRACE_METRICS + [
        ("regex_ast.parse_s", "s"),
        ("regex_ast.parse_bytes", "bytes"),
        ("regex_ast.parse_distinct_nodes", "count"),
    ] + VERIFY_METRICS + [("verify.violations", "count")],
    "proofs": CLI_METRICS + TRACE_METRICS + [
        ("bounds.fn_bounds_s", "s"),
        ("bounds.stirling_s", "s"),
        ("bounds.lemma_sa_s", "s"),
        ("bounds.ga_domain_s", "s"),
        ("bounds.lemma_ga_s", "s"),
        ("bounds.lemma_gaS_s", "s"),
        ("bounds.estimate_s", "s"),
        ("bounds.points_checked", "count"),
        ("bounds.max_precision_bits", "bits"),
        ("lengths.f_table_s", "s"),
        ("lengths.opt_choice_s", "s"),
        ("lengths.triple_growth_s", "s"),
        ("lengths.splits_checked", "count"),
        ("oracle.cost_table_s", "s"),
        ("oracle.main_opt_s", "s"),
        ("oracle.ell_s", "s"),
        ("oracle.universe_words", "count"),
    ],
}

# (module, public function, span name).  The CLI looks these up through the
# module at call time, as do the calls nested inside them (certify reaches
# glushkov and uniform_length; the oracle's main check reaches ell and the
# cost table), so wrapping the module attribute catches every call.
WRAPPED = [
    ("regex_ast", "render_to", "regex_ast.render"),
    ("regex_ast", "parse", "regex_ast.parse"),
    ("verify", "language_equals_permutations", "verify.certify"),
    ("verify", "glushkov", "verify.glushkov"),
    ("verify", "uniform_length", "verify.uniform_length"),
    ("bounds", "check_fn_bounds", "bounds.fn_bounds"),
    ("bounds", "check_stirling_sandwich", "bounds.stirling"),
    ("bounds", "check_lemma_sa", "bounds.lemma_sa"),
    ("bounds", "filter_ga_domain", "bounds.ga_domain"),
    ("bounds", "check_lemma_ga", "bounds.lemma_ga"),
    ("bounds", "check_lemma_gaS", "bounds.lemma_gaS"),
    ("bounds", "estimate_power_of_two", "bounds.estimate"),
    ("lengths", "f_table", "lengths.f_table"),
    ("lengths", "check_opt_choice", "lengths.opt_choice"),
    ("lengths", "check_triple_growth", "lengths.triple_growth"),
    ("oracle", "minimal_cost_table", "oracle.cost_table"),
    ("oracle", "check_main_opt", "oracle.main_opt"),
    ("oracle", "ell", "oracle.ell"),
]

SPAN_CALLS = 20_000   # traced no-op calls per batch that times one span


class Tracer:
    """In-memory span recorder.  Spans of one command share its run id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: dict[str, float] = defaultdict(float)
        for record, covered in zip(self.spans, child_time):
            out[record["name"]] += record["end"] - record["start"] - covered
        return out

    def totals(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.spans if r["name"] == name)


def distinct_nodes(expr) -> int:
    """Count nodes by identity, so a shared subexpression counts once."""
    seen: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for attr in ("left", "right", "child"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return len(seen)


def _wrap(tracer: Tracer, name: str, fn, captured: list):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        captured.append((name, args, result))
        return result

    return traced


def span_cost() -> float:
    """Seconds one traced call adds to the call: a wrapped no-op's time per
    call minus the bare no-op's, median over batches."""

    def noop():
        return None

    tracer, captured = Tracer(), []
    wrapped = _wrap(tracer, "noop", noop, captured)
    costs = []
    for _ in range(7):
        started = time.perf_counter()
        for _ in range(SPAN_CALLS):
            wrapped()
        traced_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(SPAN_CALLS):
            noop()
        costs.append((traced_s - (time.perf_counter() - started)) / SPAN_CALLS)
        tracer.spans.clear()
        captured.clear()
    return statistics.median(costs)


def install(tracer: Tracer, captured: list) -> None:
    """Wrap each layer's public functions, and the CLI's builder table."""
    import permrex.cli as cli

    for module_name, attr, name in WRAPPED:
        module = sys.modules[f"permrex.{module_name}"]
        setattr(module, attr, _wrap(tracer, name, getattr(module, attr), captured))
    for key, fn in cli._BUILDERS.items():
        cli._BUILDERS[key] = _wrap(tracer, "construct.build", fn, captured)


def count(tracer: Tracer, captured: list, counts: dict, output: Path) -> None:
    """Turn one command's captured calls into counts, outside its spans."""
    from permrex import regex_ast

    for name, args, result in captured:
        if name == "regex_ast.render":
            counts["regex_ast.render_bytes"] += output.stat().st_size
        elif name == "construct.build":
            with tracer.span("regex_ast.metrics"):
                size = regex_ast.metrics(result)
            counts["construct.symbols"] += size.alphabetic_length
            counts["construct.tree_nodes"] += size.node_count
            counts["construct.distinct_nodes"] += distinct_nodes(result)
        elif name == "regex_ast.parse":
            counts["regex_ast.parse_bytes"] += len(args[0].encode("utf-8"))
            counts["regex_ast.parse_distinct_nodes"] += distinct_nodes(result)
        elif name == "verify.glushkov":
            counts["verify.positions"] += len(result.symbols)
            counts["verify.follow_bytes"] += sum(map(sys.getsizeof, result.follow))
        elif name == "verify.certify":
            counts["verify.words_tested"] += result.words_tested
            counts["verify.accepted"] += result.accepted
            counts["verify.violations"] += len(result.violations)
        elif name.startswith("bounds.") and hasattr(result, "points_checked"):
            counts["bounds.points_checked"] += result.points_checked
            counts["bounds.max_precision_bits"] = max(
                counts["bounds.max_precision_bits"], result.max_precision_bits)
        elif name == "lengths.opt_choice":
            counts["lengths.splits_checked"] += args[0] - 1
        elif name == "oracle.cost_table":
            counts["oracle.universe_words"] = len(args[0].words)
    captured.clear()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--as-limit", type=int, required=True,
                        help="address-space cap in bytes for this process")
    parser.add_argument("--spans-file", type=Path, required=True,
                        help="where the spans are written")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (args.as_limit, args.as_limit))
    # Pinned for the import only, as launch.py does.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import permrex.cli
    import_s = time.perf_counter() - started
    os.sched_setaffinity(0, cpus)
    if not Path(permrex.cli.__file__).resolve().is_relative_to(src):
        print(f"error: permrex imported from outside {src}", file=sys.stderr)
        return 2

    args.work.mkdir(parents=True, exist_ok=True)
    commands = workloads.WORKLOADS[args.workload](args.work, args.seed)
    tracer = Tracer()
    captured: list = []
    counts: dict = defaultdict(int)
    install(tracer, captured)
    wall = 0.0
    command_spans = 0   # spans the commands opened; count() opens probes
    problems = []
    failed = 0
    for i, command in enumerate(commands):
        tracer.run_id = f"{args.workload}/{args.seed}/{i}"
        command.output.unlink(missing_ok=True)
        stderr = io.StringIO()
        opened = len(tracer.spans)
        begin = time.perf_counter()
        with contextlib.redirect_stderr(stderr), tracer.span(f"cli.{command.argv[0]}"):
            code = permrex.cli.run(list(command.argv))
        wall += time.perf_counter() - begin
        command_spans += len(tracer.spans) - opened
        count(tracer, captured, counts, command.output)
        wrong = command.check(code, command.output, stderr.getvalue())
        failed += bool(wrong)
        problems += [f"{command.name}: {p}" for p in wrong]

    selfs = tracer.self_times()
    values = dict(counts)
    values["cli.import_s"] = import_s
    values["cli.self_s"] = sum(t for n, t in selfs.items() if n.startswith("cli."))
    for name, t in selfs.items():
        if not name.startswith("cli."):
            values[f"{name}_s"] = t
    if "verify.certify" in selfs:
        values["verify.certify_s"] = tracer.totals("verify.certify")
        values["verify.walk_s"] = selfs["verify.certify"]
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = command_spans * span_cost()
    missing = [name for name, _ in LAYER_METRICS[args.workload] if name not in values]
    if missing:
        print(f"error: no span or count for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in LAYER_METRICS[args.workload]
    }
    args.spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({"attempted": len(commands), "failed": failed,
                      "problems": problems, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
