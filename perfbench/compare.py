"""Compare a change against its parent with paired benchmark runs.

    python3 perfbench/compare.py --parent DIR --change DIR --workload NAME [--seed 1]

Both sides run this directory's benchmark code with identical settings, for
BENCHMARK.json's run_seconds, each against its own checkout's `src`.  Ten
pairs run; pair i uses seed + i on both sides and alternates which side runs
first.  For every end-to-end metric in
BENCHMARK.json the verdict is:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the parent's interquartile range, as a share of its median,
              is wider than the metric's bound, unless every change run
              beats every parent run (then: improved-all-runs);
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

A gain does not count when the change fails more commands than the parent.
Every result carries nproc, the Python version, mpmath's backend and the git
commit of each side.  The report is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT = 300.0
PAIRS = 10


def git_commit(root: Path) -> str:
    """HEAD of the checkout, suffixed -dirty when files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def environment() -> dict:
    try:
        import mpmath.libmp
        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = "unavailable"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath_backend": backend}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--root", str(root)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: benchmark on {root} printed nothing:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> dict:
    sign = 1.0 if better == "lower" else -1.0   # positive gain = change better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    iqr = p_q3 - p_q1
    spread = iqr / p_med if p_med else float("inf")
    worse_share = sign * (c_med - p_med) / p_med if p_med else 0.0
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (not more_failures and wins >= 0.9 * len(gains)
            and sign * (p_med - c_med) > iqr):
        outcome = "improved"
    elif spread > bound:
        outcome = ("improved-all-runs" if every_run_better and not more_failures
                   else "unresolved")
    elif worse_share > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "verdict": outcome, "wins": wins, "pairs": len(gains),
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3, "values": parent},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3, "values": change},
        "parent_spread": spread, "bound": bound, "worse_share": worse_share,
    }


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Paired parent/change comparison.")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(sides[side], args.workload, args.seed + i, seconds)
            if not result["correct"]:
                print(f"error: {side} gave a wrong output in pair {i}", file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"# pair {i} {side}: " + ", ".join(
                f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()),
                flush=True)

    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    report = {
        "workload": args.workload,
        "seconds": seconds,
        "environment": environment(),
        "commits": {side: git_commit(root) for side, root in sides.items()},
        "failed": failed,
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        report["metrics"][name] = verdict(
            values["parent"], values["change"], metric["better"], metric["bound"],
            more_failures=failed["change"] > failed["parent"])
        row = report["metrics"][name]
        print(f"# {name:<12} parent {row['parent']['median']:.4f} "
              f"change {row['change']['median']:.4f} {metric['unit']}  "
              f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
