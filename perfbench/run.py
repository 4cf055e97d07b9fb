"""ietkit benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload verify|orbit|words --seed N --seconds S --trace 0|1

Run from the root of a checkout; ietkit is imported from ``src/``.  The
workload's inputs are generated from the seed, set-up is timed in several
fresh interpreters, and the batch runs in one more fresh interpreter (see
``worker.py``) for at least S seconds.  A table of every metric goes to
stdout, and the last line is the JSON object named in ``BENCHMARK.json``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones from an extra traced pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed half before and half after the batch, because the speed
# of a shared host drifts over a run.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def time_setups(plan_path: Path, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ``ietkit.cli`` and parsed the workload's instance files, as the child
    reads the system-wide monotonic clock.  Timing the child's exit from here
    would add the polling granularity of ``subprocess`` waits (50 ms)."""
    walls = []
    for _ in range(count):
        argv = [sys.executable, str(HERE / "worker.py"), "--setup", str(plan_path)]
        argv += ["--spawned", repr(time.monotonic())]
        done = subprocess.run(argv, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True)
        walls.append(float(done.stdout))
    return walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ietkit" / "cli.py").is_file():
        print(f"perfbench: no ietkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    plan = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        plan_path = Path(work) / "plan.json"
        result_path = Path(work) / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        worker = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
        worker += ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        try:
            time_setups(plan_path, 1)  # warms the bytecode and file caches
            setup_walls = time_setups(plan_path, SETUP_PROBES // 2)
            subprocess.run(worker, check=True, timeout=WORKER_TIMEOUT_S)
            setup_walls += time_setups(plan_path, SETUP_PROBES - SETUP_PROBES // 2)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}\n{exc.stderr or ''}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))

    for problem in result["problems"]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": result["peak_rss_mb"],
        "batch_s": result["batch_s"],
        "batch_ref": result["batch_ref"],
        "fail_ratio": result["failed"] / result["attempted"],
        **result.get("per_layer", {}),
    }
    for name in KINDS.values():
        values[name] = result["throughputs"].get(name, 0.0)

    print(f"perfbench {args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(f"  batch_s {result['batch_s']:.4f} s; pass walls: " + " ".join(f"{wall:.3f}" for wall in result["walls"]))
    print("  setup walls: " + " ".join(f"{wall:.3f}" for wall in setup_walls))
    for m in declared["end_to_end"] + declared["per_layer"]:
        if m["name"] in values:
            print(f"  {m['name']:36s} {values[m['name']]:16.6g} {m['unit']}")
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
