"""conecal benchmark: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload dense-capture --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of ``spec.END_TO_END``;
with ``--trace 1`` it carries the per-layer metrics of
``spec.PER_LAYER``. Lines before it are a readable table. A record of
the run, with an environment stamp, is kept under ``.perfbench_out/``.

Exit codes: 0 the run finished (``correct`` says whether the outputs
passed the gates), 1 the worker failed or timed out, 2 bad arguments or
no source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import spec

DEADLINE_S = 170.0  # the whole run, setup measurement included
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, scipy, conecal, conecal.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(spec.THREAD_ENV)
    env["PYTHONPATH"] = str(spec.SRC_DIR)
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Import time of conecal with numpy and scipy in fresh processes.

    One unrecorded import first, so byte-compiling a fresh checkout is
    not counted; the median of the rest is reported.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=spec.ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        if i > 0:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (spec.SRC_DIR / "conecal" / "__init__.py").is_file():
        print(f"error: no conecal source tree at {spec.SRC_DIR}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    env = child_env()
    spec.OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(env, deadline)
    result_path = spec.OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    worker = [
        sys.executable,
        str(spec.BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(worker, env=env, cwd=spec.ROOT, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {proc.returncode} without a result", file=sys.stderr)
        return 1
    record = json.loads(result_path.read_text())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for i, rep in enumerate(record["reps"]):
        times = "  ".join(f"{name}_s {sec:.4f}" for name, sec in rep["commands"].items())
        print(
            f"rep {i}{' traced' if rep['traced'] else ''}: {times}  pipeline_s {rep['pipeline_s']:.4f}"
            f"  reference_s {rep['reference_s']:.4f}"
        )
    untraced = [rep for rep in record["reps"] if not rep["traced"]]
    for name in untraced[0]["commands"] if untraced else ():
        seconds = [rep["commands"][name] for rep in untraced if name in rep["commands"]]
        print(f"{name}_s {statistics.median(seconds):.4f} s (median of {len(seconds)})")
    for name, value in record["quality"].items():
        print(f"{name} {value:.6g} cm")
    for name, gate in record["gates"].items():
        print(f"gate {name}: {'pass' if gate['passed'] else 'FAIL'} ({gate['detail']})")

    if args.trace:
        values = record.get("per_layer", {name: 0.0 for name in spec.PER_LAYER})
        metrics = metric_block(values, spec.PER_LAYER)
    else:
        # a repetition cut short by a failed command has no reference time
        finished = [rep["pipeline_s"] / rep["reference_s"] for rep in untraced if rep["reference_s"] > 0]
        values = {
            "pipeline_ref": statistics.median(finished) if finished else 0.0,
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = metric_block(values, {name: unit for name, (unit, _, _) in spec.END_TO_END.items()})
        record["setup_samples_s"] = setup
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    record["metrics"] = metrics
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
