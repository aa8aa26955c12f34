"""The benchmark command: one seeded workload, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload segment-pd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Every run is one closed loop with one client thread in this interpreter.
It prints one ``perfbench {...}`` line with every figure it measured
(including the per-workload names and the tails, which are not gated),
then, as the last line, the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A traced run also writes its
spans to ``.perfbench_out/``. ``--smoke`` runs every workload once on tiny
inputs with every check on.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the import clock starts above
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "segment-pd": "segment_pd",
    "summarize-sd": "summarize_sd",
    "serve-ingest": "serve_ingest",
}

#: The gated end-to-end metrics, every one reported by every workload.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_s": "s",
    "alt_p50_s": "s",
}

SMOKE_SECONDS = 0.2


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full"):
    """Import and run one workload; returns its Outcome."""
    module = importlib.import_module(f"perfbench.{WORKLOADS[name]}")
    import_s = time.perf_counter() - _STARTED
    tracer = None
    if trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        outcome = module.run(seed, seconds, tracer=tracer, size=size)
    finally:
        if tracer is not None:
            tracer.restore()
    outcome.e2e["setup_s"] += import_s
    outcome.info["import_s"] = import_s
    if tracer is not None:
        from perfbench.layers import LAYER_UNITS, operator_balance

        outcome.layers = {name: outcome.layers.get(name, 0)
                          for name in LAYER_UNITS}
        timed_ops = {span[4] for span in tracer.spans if span[4] >= 1}
        balance = operator_balance(tracer, timed_ops)
        for operator, (evaluate_s, parts_s) in balance.items():
            outcome.info[f"{operator}_total_s"] = evaluate_s
            outcome.check(abs(evaluate_s - parts_s) <= 1e-6 * max(
                1.0, evaluate_s), f"{operator}: children + self != total")
        outcome.info["spans"] = len(tracer.spans)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl"))
    return outcome


def result_line(outcome, trace: bool) -> str:
    """The final output line the benchmark driver reads."""
    if trace:
        from perfbench.layers import LAYER_UNITS

        units = LAYER_UNITS
        values = outcome.layers
    else:
        units, values = E2E_UNITS, outcome.e2e
    return json.dumps({
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def smoke() -> int:
    """Every workload traced on tiny inputs, every check on; 0 when all
    pass. Tracing adds the span checks to the workloads' own."""
    status = 0
    for name in WORKLOADS:
        outcome = run_workload(name, 1, SMOKE_SECONDS, True, "smoke")
        good = not outcome.mismatches and outcome.failed == 0
        print(f"smoke {name}: {'ok' if good else 'FAILED'} "
              f"attempted={outcome.attempted} failed={outcome.failed} "
              f"{outcome.mismatches[:3]}", flush=True)
        status |= 0 if good else 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # Scratch files of the program (worker checkpoints) stay inside the
    # checkout, for this process and the workers it starts.
    scratch = os.path.join(ROOT, ".perfbench_out", "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print("perfbench " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, **outcome.e2e, **outcome.info,
        "mismatches": outcome.mismatches,
    }), flush=True)
    print(result_line(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
