"""Run the benchmark over several seeds and summarize it the way it is gated.

For each workload and seed this runs ``run.py`` in its own interpreter,
keeps the result line and the ``perfbench`` line, and prints per metric the
median, the quartiles and their distance as a share of the median — the
spread each end-to-end bound must contain. ``--traced`` names seeds for
traced runs, which follow; the report then adds the per-layer medians and
the tracing overhead (traced against untraced runs of the same seeds).
From the repository root::

    python3 perfbench/report.py --seeds 1-10 --traced 1-3 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("segment-pd", "summarize-sd", "serve-ingest")


def seed_list(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    info = json.loads(lines[-2].removeprefix("perfbench "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "result": json.loads(lines[-1]), "info": info}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def summarize(records: list[dict], bounds: dict[str, float]) -> None:
    for workload in WORKLOADS:
        for trace in (0, 1):
            rows = [r for r in records
                    if r["workload"] == workload and r["trace"] == trace]
            if len(rows) < 2:
                continue
            print(f"\n## {workload} trace={trace}: {len(rows)} runs, wall "
                  f"median {statistics.median(r['wall_s'] for r in rows):.1f}"
                  f" s, correct={all(r['result']['correct'] for r in rows)}"
                  f", failed={[r['result']['failed'] for r in rows]}")
            for name in rows[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in rows]
                if len(set(values)) == 1:
                    print(f"  {name:32s} {values[0]:.6g} (every run)")
                    continue
                med, q1, q3, share = spread(values)
                bound = bounds.get(name)
                flag = "" if bound is None else (
                    f" bound {bound} {'ok' if share < bound else 'OVER'}")
                print(f"  {name:32s} {med:.6g} [{q1:.6g}, {q3:.6g}] "
                      f"spread {share:.3f}{flag}")
        traced = [r for r in records
                  if r["workload"] == workload and r["trace"] == 1]
        traced_seeds = {r["seed"] for r in traced}
        untraced = [r for r in records
                    if r["workload"] == workload and r["trace"] == 0
                    and r["seed"] in traced_seeds]
        if untraced and traced:
            for name in ("ops_per_s", "p50_s", "alt_p50_s"):
                plain = statistics.median(r["info"][name] for r in untraced)
                with_trace = statistics.median(r["info"][name] for r in traced)
                print(f"  tracing overhead on {name}: "
                      f"{with_trace / plain - 1:+.3%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", default="",
                        help="seeds for traced runs, e.g. 1-3")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".perfbench_out", "report.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    records = []
    with open(args.out, "a", encoding="utf-8") as out:
        plan = [(0, seed_list(args.seeds))]
        if args.traced:
            plan.append((1, seed_list(args.traced)))
        for trace, seeds in plan:
            for workload in args.workloads.split(","):
                for seed in seeds:
                    record = run_once(workload, seed, args.seconds, trace)
                    records.append(record)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed} trace {trace}: "
                          f"{record['wall_s']:.1f} s", flush=True)
    summarize(records, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
