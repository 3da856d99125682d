"""permrex benchmark: replay a seeded CLI workload and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a permrex checkout (or pass --root); the package is
imported from its `src` directory only.

--trace 0: every command of the workload is a fresh CLI process, started only
after the previous one exits (a closed loop with one client, as a user runs
the tool).  Passes over the command list repeat for about S seconds,
rounded to whole passes; at least one runs.  Each pass is checked against
known answers, and the last line of standard output is one JSON object with
the end-to-end metrics, each the median over passes (setup_s: over
commands).  Each child runs under a timeout and an address-space cap; a
command that hits either, or is killed by a signal, counts as failed and
makes the run incorrect, like a wrong output.

The times are reported in nominal seconds.  The speed of a shared virtual
machine drifts by tens of percent over minutes, so each command's child
times two fixed pure-Python loops before and after the command (launch.py),
and the command's times are multiplied by the loops' nominal duration over
their measured one.  A
change to permrex moves these numbers as it moves the raw times; a change in
machine speed does not.  The raw times are printed next to them.

--trace 1: layers.py makes the same calls in-process with spans around each
layer, for every workload, and reports the per-layer metrics, each
workload's traced wall time and its tracing overhead among them.

`--workload all` runs every workload with tracing off and prints a table.
The exit code is 1 when any output was wrong or any command hit a guard,
2 when nothing could run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
AS_LIMIT = 2**30             # address-space cap per command
COMMAND_TIMEOUT = 60.0       # seconds per command
RUN_DEADLINE = 150.0         # seconds per run; nothing starts after it
NOMINAL_REFERENCE_S = 0.0093  # launch.py's reference loops at nominal speed


@dataclass
class Result:
    command: workloads.Command
    code: int
    spawned: float
    ended: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    # Nominal over measured reference-loop time, 1 if unknown: `scale` for
    # the whole command (loops before and after), `setup_scale` for set-up.
    scale: float
    setup_scale: float
    guard: str | None
    problems: list[str]

    @property
    def wall_s(self) -> float:
        return self.ended - self.spawned


def run_command(command: workloads.Command, root: Path, env: dict, timeout: float) -> Result:
    command.output.unlink(missing_ok=True)
    stderr_path = command.output.with_name(command.output.name + ".stderr")
    ready_r, ready_w = os.pipe()
    with open(stderr_path, "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(ready_w), str(AS_LIMIT),
             *command.argv],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr, pass_fds=(ready_w,))
    os.close(ready_w)
    pidfd = os.pidfd_open(proc.pid)
    timed_out = True
    try:
        timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
    finally:
        # On a timeout, or when this process is interrupted, the child goes too.
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(pidfd)
    ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with os.fdopen(ready_r, "rb") as ready:
        before, _, after = ready.read().decode("ascii").partition("\n")
    # The reference loops are not the command's time.
    ready_at, peak_kb = None, usage.ru_maxrss
    cpu_s = usage.ru_utime + usage.ru_stime
    scale = setup_scale = 1.0
    if before:
        spent, reference, cpu_spent, ready_at = map(float, before.split())
        spawned += spent
        cpu_s -= cpu_spent
        scale = setup_scale = NOMINAL_REFERENCE_S / reference
    if before and after:
        spent, reference_after, cpu_spent, peak_kb = map(float, after.split())
        ended -= spent
        cpu_s -= cpu_spent
        scale = NOMINAL_REFERENCE_S / ((reference + reference_after) / 2)
    err = stderr_path.read_text(encoding="utf-8", errors="replace")

    guard = None
    if timed_out:
        guard = f"timed out after {timeout:.0f} s"
    elif "MemoryError" in err:
        guard = "hit the address-space cap"
    elif code < 0:
        guard = f"killed by signal {-code}"
    problems = []
    if guard is None:
        try:
            problems = command.check(code, command.output, err)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"exit {code}, unreadable output ({exc!r}): {err.strip()[-200:]}"]
    return Result(
        command=command, code=code, spawned=spawned, ended=ended,
        cpu_s=cpu_s,
        rss_mb=peak_kb / 1024,
        setup_s=None if ready_at is None else ready_at - spawned,
        scale=scale, setup_scale=setup_scale,
        guard=guard, problems=problems,
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def end_to_end(name: str, seed: int, seconds: float, root: Path, work: Path) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE
    work.mkdir(parents=True, exist_ok=True)
    commands = workloads.WORKLOADS[name](work, seed)
    env = child_env(root)
    passes: list[list[Result]] = []
    measure_from = time.monotonic()
    while True:
        results = []
        for command in commands:
            timeout = min(COMMAND_TIMEOUT, deadline - time.monotonic())
            results.append(run_command(command, root, env, timeout))
        passes.append(results)
        # Another pass as long as this one would end nearer to the target
        # time than stopping now does: runs last `seconds` give or take half
        # a pass.
        pass_s = results[-1].ended - results[0].spawned
        if (results[-1].ended + pass_s / 2 - measure_from > seconds
                or results[-1].ended + pass_s > deadline):
            break

    everything = [r for results in passes for r in results]
    wrong = [r for r in everything if r.problems]
    guarded = [r for r in everything if r.guard]
    refused = [r for r in everything
               if r.code == 2 and not r.problems and not r.guard]
    started = [r for r in everything if r.setup_s is not None]

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {
        "wall_s": median([sum(r.wall_s * r.scale for r in rs) for rs in passes]),
        "cpu_s": median([sum(r.cpu_s * r.scale for r in rs) for rs in passes]),
        "setup_s": median([r.setup_s * r.setup_scale for r in started]),
        "peak_rss_mb": median([max(r.rss_mb for r in rs) for rs in passes]),
    }
    raw = {
        "wall_s": median([sum(r.wall_s for r in rs) for rs in passes]),
        "cpu_s": median([sum(r.cpu_s for r in rs) for rs in passes]),
        "setup_s": median([r.setup_s for r in started]),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(f"# {name}: seed {seed}, {len(passes)} passes of {len(commands)} commands;"
          f" reference loops at {median([1 / r.scale for r in everything]):.3f}"
          f" x their nominal time")
    print(f"#   {'metric':<12} {'nominal':>10} {'measured':>10}")
    for key, value in metrics.items():
        print(f"#   {key:<12} {value:10.4f} {raw[key]:10.4f} {units[key]}")
    print(f"#   failed {len(wrong) + len(guarded)}/{len(everything)}"
          f" (wrong {len(wrong)}, guard {len(guarded)});"
          f" expected refusals {len(refused)}/{len(everything)}")
    for r in (wrong + guarded)[:10]:
        print(f"#   FAILED {r.command.name}: {r.guard or '; '.join(r.problems)}")
    return {
        "correct": not wrong and not guarded,
        "attempted": len(everything),
        "failed": len(wrong) + len(guarded),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def trace_child(name: str, seed: int, root: Path, work: Path, spans: Path,
                timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "layers.py"), "--workload", name,
         "--seed", str(seed), "--root", str(root), "--work", str(work),
         "--as-limit", str(AS_LIMIT), "--spans-file", str(spans)],
        cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"error: traced run of {name} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(name: str, seed: int, root: Path, work: Path) -> dict:
    """Per-layer metrics of every workload, qualified by workload name; the
    chosen workload runs first."""
    metrics = {}
    problems = []
    attempted = failed = 0
    order = [name, *(w for w in workloads.WORKLOADS if w != name)]
    spans_dir = root / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE
    for workload in order:
        out = trace_child(workload, seed, root, work / workload,
                          spans_dir / f"{workload}-seed{seed}.json",
                          timeout=max(deadline - time.monotonic(), 1.0))
        problems += out["problems"]
        attempted += out["attempted"]
        failed += out["failed"]
        for key, metric in out["metrics"].items():
            metrics[f"{workload}.{key}"] = metric
    for key, metric in metrics.items():
        print(f"#   {key:<45} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems[:10]:
        print(f"#   WRONG {problem}")
    print(f"#   spans written to {spans_dir}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    # A terminated run unwinds like an interrupted one: children are killed
    # and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(
        description="Replay a seeded permrex CLI workload and report its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="checkout holding src/permrex (default: current directory)")
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")
    root = args.root.resolve()
    if not (root / "src" / "permrex" / "cli.py").is_file():
        print(f"error: no permrex sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "all":
            results = {name: end_to_end(name, args.seed, args.seconds, root, work / name)
                       for name in workloads.WORKLOADS}
            correct = all(r["correct"] for r in results.values())
            print(json.dumps({"correct": correct, "workloads": results}))
        elif args.trace:
            result = traced(args.workload, args.seed, root, work)
            correct = result["correct"]
            print(json.dumps(result))
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, root, work)
            correct = result["correct"]
            print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
