"""Repeat benchmark runs over seeds, interleaving workloads, and judge spread.

    python3 perfbench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/repeat.py --seeds 1 2 3 --workloads bmmp-ties --baseline perfbench/out/repeat-a.json

Each seed runs every chosen workload once, one fresh run.py process at a
time, in an order rotated per seed so that drift of a shared machine falls
on all workloads alike.  For every end-to-end metric and workload it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json: "steady"
below a third of the bound, "within" up to the bound, "WIDE" beyond it
(setup_s is exempt from the spread rule).  With --baseline, a median worse
than the baseline's by more than the bound reads "REGRESSED".  The summary
is saved as JSON; the exit code is 0 only when every run was correct and no
metric is WIDE or REGRESSED.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py")]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "ok": False, "wall_s": wall, "metrics": {}}
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "ok": result["correct"], "wall_s": wall, "metrics": metrics}


def summarize(spec: dict, runs: list[dict], baseline: dict | None) -> tuple[dict, bool]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary: dict = {}
    good = all(run["ok"] for run in runs)
    for workload in dict.fromkeys(run["workload"] for run in runs):
        rows = [run for run in runs if run["workload"] == workload and run["ok"]]
        if len(rows) < 2:
            good = False
            continue
        summary[workload] = {}
        for name, metric in bounds.items():
            values = [row["metrics"][name] for row in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            status = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            if name == "setup_s" and status == "WIDE":
                status = "wide (exempt)"
            if baseline is not None and workload in baseline and name in baseline[workload]:
                before = baseline[workload][name]["median"]
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    status = "REGRESSED"
            good = good and status not in ("WIDE", "REGRESSED")
            summary[workload][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "status": status,
                "values": values,
            }
            print(
                f"{workload:14s} {name:15s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {spread:6.3f} / bound {bound:.2f}  {status}"
            )
    return summary, good


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="summary JSON saved by an earlier repeat")
    parser.add_argument("--save", type=Path, default=BENCH_DIR / "out" / f"repeat-{int(time.time())}.json")
    args = parser.parse_args(argv)

    runs = []
    for i, seed in enumerate(args.seeds):
        shift = i % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"seed {seed:4d} {workload:14s} ok={run['ok']} wall {run['wall_s']:.1f} s", flush=True)
    if args.trace:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps({"runs": runs}, indent=1))
        return 0 if all(run["ok"] for run in runs) else 1
    baseline = json.loads(args.baseline.read_text())["summary"] if args.baseline else None
    summary, good = summarize(spec, runs, baseline)
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"saved {args.save}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
