"""One workload run in a fresh process: repetitions, gates, per-layer trace.

Started by ``run.py`` with the thread caps of ``spec.THREAD_ENV``; it
imports conecal from the checkout's ``src`` and writes its findings as
JSON to ``--result``. Untraced runs repeat the pipeline until
``--seconds`` have passed, at least twice so that criterion 10 (identical
output bytes) can be checked across repetitions. Traced runs make
exactly two repetitions: the first untraced, the second traced, so the
tracing overhead is their difference.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

import spec
import workloads
from reference import ReferenceKernel
from tracing import Tracer, installed, layer_metrics

COMMANDS = ("generate", "calibrate", "analyze")


def _import_program():
    sys.path.insert(0, str(spec.SRC_DIR))
    import conecal
    import conecal.cli

    where = Path(conecal.__file__).resolve()
    if spec.SRC_DIR not in where.parents:
        raise SystemExit(f"conecal was imported from {where}, not from {spec.SRC_DIR}")
    return conecal.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps[key] for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in spec.THREAD_ENV},
    }


class Repetition:
    """Runs one pipeline repetition, timing each CLI command."""

    def __init__(self, cli, directory: Path, tracer: Tracer | None):
        self.cli = cli
        self.dir = directory
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.reference_s = 0.0  # reference kernel time around this repetition
        self.attempted = 0
        self.failed = 0

    def command(self, name: str, argv) -> None:
        argv = [str(a) for a in argv]
        gc.collect()
        self.attempted += 1
        output = io.StringIO()
        scope = self.tracer.command(name) if self.tracer is not None else nullcontext()
        code = None
        with scope, redirect_stdout(output):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed command, reported with its traceback
                traceback.print_exc()
            elapsed = perf_counter() - start
        self.seconds[name] = elapsed
        if code != 0:
            self.failed += 1
            print(f"command {argv} exited {code}:\n{output.getvalue()}", file=sys.stderr)
            raise workloads.CommandFailed(name)

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())


def run_repetitions(cli, pipeline, work: Path, seed: int, seconds: float, trace: bool, run_id: str):
    """Repeat ``pipeline`` as the module docstring describes.

    Returns the repetitions and the tracer of the traced one (or None).
    Stops early when a command fails. The reference kernel is timed
    before the first repetition and after each one.
    """
    reps: list[Repetition] = []
    tracer = None
    reference = ReferenceKernel()
    before = reference.seconds()
    started = perf_counter()
    while True:
        traced = trace and len(reps) == 1
        rep_tracer = Tracer(run_id) if traced else None
        rep = Repetition(cli, work / f"rep{len(reps)}", rep_tracer)
        rep.dir.mkdir(parents=True)
        reps.append(rep)
        try:
            with installed(rep_tracer) if traced else nullcontext():
                pipeline(rep.dir, seed, rep.command)
        except workloads.CommandFailed:
            break
        after = reference.seconds()
        rep.reference_s = 0.5 * (before + after)
        before = after
        tracer = tracer or rep_tracer
        if trace and len(reps) == 2:
            break
        typical = statistics.mean(r.pipeline_s for r in reps)
        if len(reps) >= 2 and perf_counter() - started + typical > seconds:
            break
    return reps, tracer


def per_layer_metrics(tracer: Tracer, untraced: Repetition, traced: Repetition, quality: dict) -> dict:
    """Every metric of ``spec.PER_LAYER`` for one untraced/traced pair."""
    layers = layer_metrics(tracer)
    layers["cli.pipeline_s"] = untraced.pipeline_s
    layers["reference.kernel_s"] = untraced.reference_s
    for command in COMMANDS:
        layers[f"cli.{command}_s"] = untraced.seconds.get(command, 0.0)
    for key in ("fit_rmse_cm", "report_rmse_cm", "report_pinhole_rmse_cm"):
        layers[f"quality.{key}"] = quality[key]
    layers["tracing.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
    layers["tracing.overhead_ratio"] = layers["tracing.overhead_s"] / untraced.pipeline_s
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    cli = _import_program()
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = spec.WORK_DIR / run_id
    shutil.rmtree(work, ignore_errors=True)
    gate_results = {}
    quality = {}
    try:
        reps, tracer = run_repetitions(
            cli, workloads.PIPELINES[args.workload], work, args.seed, args.seconds,
            bool(args.trace), run_id,
        )
        failed = sum(r.failed for r in reps)
        if failed == 0:
            quality = workloads.quality(args.workload, reps[0].dir)
            gate_results = workloads.gates(args.workload, quality)
            for i, rep in enumerate(reps[1:], start=1):
                gate_results[f"identical_outputs_rep{i}"] = workloads.identical_files(
                    reps[0].dir, rep.dir
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": sum(r.attempted for r in reps),
        "failed": failed,
        "gates": {name: {"passed": bool(ok), "detail": detail} for name, (ok, detail) in gate_results.items()},
        "correct": failed == 0 and bool(gate_results) and all(ok for ok, _ in gate_results.values()),
        "reps": [
            {
                "commands": r.seconds,
                "pipeline_s": r.pipeline_s,
                "reference_s": r.reference_s,
                "traced": r.tracer is not None,
            }
            for r in reps
        ],
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None and failed == 0:
        result["per_layer"] = per_layer_metrics(tracer, reps[0], reps[1], quality)
        spec.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(spec.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    Path(args.result).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
