"""One workload in a fresh interpreter, driven in-process through the CLI.

    python3 perfbench/worker.py --setup PLAN --spawned T
    python3 perfbench/worker.py PLAN RESULT --seconds S [--trace]

``--setup`` imports ``ietkit.cli``, parses the workload's instance files,
prints the seconds since ``--spawned`` and exits.  Otherwise the worker
repeats the plan's batch of ``ietkit.cli.main(argv)`` calls, stdout
captured, for at least ``S`` seconds, checks the outputs of the first pass
and requires every later pass to print the same bytes.  With ``--trace`` it
then runs one pass with spans and one with counters, and micro-times
``QuadNum`` arithmetic.  The result is written to RESULT as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2

# Throughput metric of each kind of call: its plan units per second of wall.
KINDS = {
    "verify": "verify_words_per_s",
    "check": "keane_steps_per_s",
    "traj": "traj_letters_per_s",
    "language": "language_words_per_s",
    "bwt": "bwt_letters_per_s",
    "ebwt": "ebwt_letters_per_s",
    "inverse": "inverse_letters_per_s",
    "classify": "classify_words_per_s",
    "diet": "diet_points_per_s",
}


def import_cli():
    """``ietkit.cli`` from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import ietkit.cli

    if not Path(ietkit.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported {ietkit.cli.__file__}, not the sources under {SRC}")
    return ietkit.cli


def setup(plan: dict):
    cli = import_cli()
    from tracer import resolve

    _, _, parse_iet_file = resolve("ietkit.cli", "parse_iet_file")
    for path in plan["instances"]:
        parse_iet_file(path)
    return cli


def run_call(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """(exit status, wall seconds, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a benchmark crash
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def reference_wall(loops: int) -> float:
    """Median wall of ``loops`` runs of a fixed pure-Python loop of integer
    gcds, tuples, dict updates and string sorting, about 20 ms each.  It
    shares no code with ietkit, so its wall tracks only the speed of the
    host, which on shared machines drifts by a third within minutes."""
    walls = []
    for _ in range(loops):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(1, 40_000):
            key = (i % 97, math.gcd(i * 7919, 1234567890))
            table[key] = table.get(key, 0) + i
        "".join(sorted(str(i * i) for i in range(25_000)))
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


class Batch:
    """Runs the plan's calls as one pass.  Keeps the outputs of the first pass
    and the indices of calls whose output later changed."""

    def __init__(self, cli, calls: list[dict]):
        self.cli = cli
        self.calls = calls
        self.first: list[tuple[int, float, str, str]] = []
        self.changed: set[int] = set()

    def call(self, i: int) -> float:
        """Runs call ``i``; returns its wall."""
        result = run_call(self.cli, self.calls[i]["argv"])
        if len(self.first) == i:
            self.first.append(result)
        elif result[0] != self.first[i][0] or result[2] != self.first[i][2]:
            self.changed.add(i)
        return result[1]

    def run(self) -> list[float]:
        """One pass; returns the wall of each call."""
        return [self.call(i) for i in range(len(self.calls))]

    def run_referenced(self, previous: list[float] | None) -> tuple[list[float], float]:
        """One pass with the reference loop timed before every call and after
        the last.  Returns the wall of each call and the pass's cost in
        reference units: the sum of each call's wall over the mean of the
        reference walls just before and after it.  Each reference sample
        takes one more loop per second of the calls beside it in the
        ``previous`` pass, so that long calls get steadier samples."""
        beside = [0.0] + (previous or [0.0] * len(self.calls)) + [0.0]
        refs = [reference_wall(1 + int(beside[0] + beside[1]))]
        walls = []
        for i in range(len(self.calls)):
            walls.append(self.call(i))
            refs.append(reference_wall(1 + int(beside[i + 1] + beside[i + 2])))
        return walls, sum(wall * 2 / (a + b) for wall, a, b in zip(walls, refs, refs[1:]))


def check_outputs(plan: dict, batch: Batch) -> tuple[int, int, list[str]]:
    """(ops in one pass, ops failed in one pass, problems).  An op is a factor
    word in ``verify`` and a CLI call elsewhere; the first pass is checked and
    every other pass must match it byte for byte."""
    from checks import CHECKS, check_verify

    attempted = failed = 0
    problems = []
    for i, call in enumerate(plan["calls"]):
        code, _, out, err = batch.first[i]
        if call["kind"] == "verify":
            bad, wrong = check_verify(call["expect"], code, out)
            ops = call["units"]
        else:
            wrong = CHECKS[call["kind"]](call["expect"], code, out)
            ops, bad = 1, int(bool(wrong))
        if i in batch.changed:
            wrong.append("output differs between passes")
            bad = ops
        if wrong and err.strip():
            wrong.append(f"stderr: {err.strip().splitlines()[-1]}")
        problems += [f"{' '.join(call['argv'])[:80]}: {what}" for what in wrong]
        attempted += ops
        failed += bad
    return attempted, failed, problems


def throughputs(plan: dict, walls: list[list[float]]) -> dict[str, float]:
    """Median over passes of each kind's units per second of its calls' wall."""
    out = {}
    for kind, name in KINDS.items():
        idx = [i for i, call in enumerate(plan["calls"]) if call["kind"] == kind]
        if idx:
            units = sum(plan["calls"][i]["units"] for i in idx)
            out[name] = statistics.median(units / sum(p[i] for i in idx) for p in walls)
    return out


def arith_ns() -> dict[str, float]:
    """Nanoseconds per QuadNum add, compare and sign on consecutive points of
    a sqrt2_even orbit (loop overhead included), median of 31 repeats."""
    from checks import load_instance
    from ietkit import QuadNum

    iet = load_instance(str(ROOT / "perfbench" / "data" / "sqrt2_even.iet"))
    points = [QuadNum(1, 1, 7, 2)]
    for _ in range(256):
        points.append(iet.apply(points[-1]))
    pairs = list(zip(points, points[1:]))

    def per_op(fn) -> float:
        samples = []
        for _ in range(31):
            start = time.perf_counter_ns()
            fn()
            samples.append((time.perf_counter_ns() - start) / len(pairs))
        return statistics.median(samples)

    return {
        "arith.add_ns": per_op(lambda: [a + b for a, b in pairs]),
        "arith.cmp_ns": per_op(lambda: [a < b for a, b in pairs]),
        "arith.sign_ns": per_op(lambda: [a.sign() for a, _ in pairs]),
    }


def layer_metrics(spans, counters, overhead_s: float) -> dict[str, float]:
    """Calls and self time of every span from the span pass, calls of every
    counter from the counter pass, and the ratios built on them."""
    from tracer import COUNTERS, SPANS

    counts = counters.counts
    metrics: dict[str, float] = {}
    for name, *_ in SPANS:
        metrics[f"{name}.calls"] = spans.calls[name]
        metrics[f"{name}.self_s"] = spans.self_s[name]
    for name, *_ in COUNTERS:
        metrics[f"{name}.calls"] = counts[name]
    horizon = spans.counts["iet.scan_horizon"]
    built = counts["rauzy.states_built"]
    kept = spans.counts["rauzy.steps_kept"]
    metrics.update(
        {
            "bwt.bwt.letters": spans.counts["bwt.bwt.letters"],
            "iet.scan_steps": counts["iet.scan_steps"],
            "iet.scan_horizon_use": counts["iet.scan_steps"] / horizon if horizon else 0.0,
            "iet.scan_incomplete": spans.counts["iet.return_words_scan.raised.IncompleteScanError"],
            "rauzy.states_built": built,
            "rauzy.steps_kept": kept,
            "rauzy.step_yield": kept / built if built else 0.0,
            "trace.overhead_s": overhead_s,
        }
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result", nargs="?")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--spawned", type=float, help="time.monotonic() when run.py spawned this set-up probe")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    cli = setup(plan)
    if args.setup:
        print(time.monotonic() - args.spawned)
        return 0

    batch = Batch(cli, plan["calls"])
    walls, costs = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        call_walls, cost = batch.run_referenced(walls[-1] if walls else None)
        walls.append(call_walls)
        costs.append(cost)
        if len(walls) == MIN_PASSES:
            # Later passes repeat the same work; the slow creep of the peak
            # over them would tie it to the number of passes, which grows as
            # the program gets faster.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_walls = [sum(p) for p in walls]
    result = {
        "passes": len(walls),
        "walls": pass_walls,
        "batch_s": statistics.median(pass_walls),
        "batch_ref": statistics.median(costs),
        "peak_rss_mb": peak_rss_mb,
        "throughputs": throughputs(plan, walls),
    }

    if args.trace:
        from tracer import Tracer, missing_hits

        # Both traced passes also go through the output comparison: tracing
        # must not change what the program prints.
        with Tracer().install(counters=False) as spans:
            traced_s = sum(batch.run())
        with Tracer().install(counters=True) as counters:
            batch.run()
        missing = missing_hits(plan["workload"], spans, counters)
        if missing:
            print("perfbench: traced run missed " + ", ".join(missing), file=sys.stderr)
            return 3
        overhead_s = traced_s - result["batch_s"]
        result["per_layer"] = {**arith_ns(), **layer_metrics(spans, counters, overhead_s)}

    ops, failed, problems = check_outputs(plan, batch)
    result.update(
        correct=not problems,
        problems=problems,
        attempted=ops * len(walls),
        failed=failed * len(walls),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
