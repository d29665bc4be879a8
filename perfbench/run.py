"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fleet_stream --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` wraps every layer's public entry
points in spans and reports per-layer metrics instead.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is non-zero when an output check fails.  The first run in
a checkout generates the cached case inputs of every workload (minutes)
before it measures anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fleet_stream", "corpus_cases")

# One process, no helper threads: on a small box extra BLAS threads
# measure the scheduler rather than the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run one workload in this process; returns its ``Outcome``."""
    from perfbench import inputs

    inputs.ensure_all(log=log)
    if workload == "fleet_stream":
        from perfbench import fleet_stream

        expected = inputs.SPECS[workload].manifest()["content_digest"]
        return fleet_stream.run(seed, seconds, traced, expected)
    from perfbench import cases

    return cases.run(seed, seconds, traced)


def result_line(outcome, traced: bool) -> dict:
    from perfbench.common import E2E_METRICS, LAYER_METRICS

    table = LAYER_METRICS if traced else E2E_METRICS
    values = outcome.layers if traced else outcome.e2e
    return {
        "correct": not outcome.check_failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in table
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"[perfbench] no src/repro under {ROOT}: nothing to benchmark")
        return 2
    # Import the benchmark as a package, not its files as top-level
    # modules from the script's own directory.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(outcome, bool(args.trace))

    from perfbench.common import OUT_DIR

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": outcome.input_digest,
        "check_failures": outcome.check_failures,
        "details": outcome.details,
        **line,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for failure in outcome.check_failures:
        log(f"[perfbench] CHECK FAILED: {failure}")
    print(f"[perfbench] {args.workload} seed={args.seed} input_digest={outcome.input_digest}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
