"""HybridGNN benchmark entry point.

    python3 perfbench/run.py --workload train-smoke --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics.  With ``--trace 1`` the same workload first
runs untraced in a child process, then traced in this one; the last line
carries the per-layer metrics, including the tracing overhead (traced
minus untraced end-to-end values), and the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: One BLAS thread on every run: the same on every host with at least one
#: core, and it leaves the second core to the second service client.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SPEC = HERE.parent / "BENCHMARK.json"

#: glibc's ``mallopt`` parameter number for the arena limit.
M_ARENA_MAX = -8


def single_malloc_arena() -> bool:
    """Make every thread allocate from one glibc arena; False off glibc.

    With the default per-thread arenas, peak RSS on ``embed-serve-10k``
    depended on how the service's and the clients' threads happened to
    spread their allocations: its spread over ten seeds was 0.06 to 0.09
    of the median; with one arena it is 0.02 to 0.04.  Called before any
    thread starts.
    """
    import ctypes

    try:
        return bool(ctypes.CDLL("libc.so.6").mallopt(M_ARENA_MAX, 1))
    except (OSError, AttributeError):
        return False


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``, in order."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def environment(single_arena: bool) -> dict:
    import ctypes

    import numpy as np

    threads = None
    for library in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "blas_threads": threads,  # None when the BLAS cannot be queried
        "malloc_arena_max": 1 if single_arena else None,
    }


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def untraced_child(args):
    """Run the same workload untraced in a fresh process; its last two lines."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"untraced run failed with exit code {completed.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("perfbench: --seconds must be >= 1\n")
        return 2
    env = environment(single_malloc_arena())
    threads = env["blas_threads"]
    if threads is not None and not 1 <= threads <= (env["cpu_count"] or 1):
        sys.stderr.write(f"perfbench: BLAS threads {threads} exceed "
                         f"cpu_count {env['cpu_count']}\n")
        return 2
    run = workloads.WORKLOADS[args.workload]
    end_to_end = metric_units("end_to_end")

    if not args.trace:
        outcome = run(args.seed, args.seconds)
        emit({"environment": env, "workload": args.workload, "seed": args.seed,
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()},
              "problems": outcome.problems})
        emit({"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                          for name, unit in end_to_end.items()}})
        return 0

    from tracer import Tracer, layer_metrics

    untraced_info, untraced = untraced_child(args)
    tracer = Tracer()
    tracer.install()
    try:
        outcome = run(args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    layers = layer_metrics(tracer, outcome)
    for name in end_to_end:
        layers[f"trace.overhead.{name}"] = (
            outcome.metrics[name] - untraced["metrics"][name]["value"])
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in metric_units("per_layer").items()}
    emit({"environment": env, "workload": args.workload, "seed": args.seed,
          "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()},
          "untraced_detail": untraced_info["detail"],
          "traced_end_to_end": outcome.metrics, "spans": len(tracer.spans),
          "untraced_end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
          "problems": outcome.problems + untraced_info["problems"]})
    emit({"correct": outcome.correct and untraced["correct"],
          "attempted": outcome.attempted + untraced["attempted"],
          "failed": outcome.failed + untraced["failed"],
          "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
