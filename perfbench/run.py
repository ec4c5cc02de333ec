"""Benchmark for the infobs command line: four seeded workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a source checkout; it imports the package from
``src/``.  Each workload runs in a fresh child process (see
``workload.py``).  With ``--trace 0`` the result holds the end-to-end
metrics; with ``--trace 1`` a separate traced run gives the per-layer
metrics and the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: A workload process running longer than this is stopped; the run fails.
CHILD_LIMIT_S = 170.0


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    work = Path.cwd() / ".perfbench_work" / f"{name}-{os.getpid()}"
    argv = [sys.executable, str(HERE / "workload.py"), name, str(seed),
            str(seconds), "1" if trace else "0", str(work)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: stopped after {CHILD_LIMIT_S:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def show(result: dict) -> None:
    report = result["report"]
    name = report["workload"]
    print(f"{name}: seed {report['seed']}, {report['passes']} passes of"
          f" {report['commands_per_pass']} commands, correct {result['correct']},"
          f" failed {result['failed']}/{result['attempted']}"
          f" (failed_frac {report['failed_frac']:.6f} 1)")
    print(f"{name}: cmd_tail_ms is p{report['tail_percentile']} of"
          f" {report['samples']} samples, {report['samples_beyond_tail']} beyond it;"
          f" src_lines {report['src_lines']}; digest {report['digest']}")
    for metric, entry in result["metrics"].items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    for module, share in report.get("shares", {}).items():
        print(f"{name}: share of traced time in {module} = {share:.3f}")
    for line in report["problems"] + report["failures"]:
        print(f"{name}: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "infobs" / "__init__.py").is_file():
        print("error: run from the root of an infobs checkout (no src/infobs)",
              file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        show(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['report']['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
