"""Benchmark of tileserve: host replay speed and modelled latency.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's seeded trace parts and config, replays them
through ``tileserve.cli.run_trace`` in this process, checks the outputs,
and prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` replays with per-layer tracing and
reports the per-layer metrics. The line before it gives the digest of the
modelled results.
"""

from __future__ import annotations

import os

# NumPy reads these when it is first imported; one BLAS thread keeps
# replays comparable on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tileserve benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tileserve" / "__init__.py").is_file():
        print(f"error: no tileserve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from replay import Runner, measure, measure_layers
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        trace_paths, config_path = write_inputs(args.workload, args.seed, Path(tmp))
        runner = Runner(args.workload, trace_paths, config_path)
        result = (measure_layers if args.trace else measure)(runner, args.seconds)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"model digest: {result['digest']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A metric that could not be computed is left out; the run is then
    # not correct, because every such case also records a problem.
    reported = [m for m in spec["per_layer" if args.trace else "end_to_end"] if m["name"] in result["metrics"]]
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
