"""One measured process: import the program, set up a workload, run its operations.

Started by ``run.py`` with the program on ``PYTHONPATH`` and one BLAS thread.
It prints :data:`READY` once set-up and the untimed warm-up operation are
done, so the parent can time set-up from process start.  It then runs its
share (``--part`` of ``--parts``) of the fixed list of operations, checks
each outside the timed region and idles ``--pause`` seconds after it, and
writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import traceback

READY = "perfbench-ready"

#: The module a workload's user imports: the library, or the CLI behind ``eq``.
ENTRY_MODULE = {"cli_cycle": "enhq.cli"}


def _thread_count() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--pause", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    importlib.import_module(ENTRY_MODULE.get(args.workload, "enhq"))
    import_ms = (time.perf_counter() - start) * 1e3

    import numpy
    import scipy

    import tracer as tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)

    workload = WORKLOADS[args.workload]()
    items = workload.operations(args.seed, args.ops)[args.part::args.parts]
    problems = []

    setup_span = tracer.begin(tracing.SETUP) if tracer is not None else None
    workload.setup(args.scratch)
    warm = workload.run(items[0])
    try:
        workload.check(items[0], warm)
    except Exception as exc:  # a check that cannot read an output fails it too
        problems.append(f"warm-up: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.end(setup_span)
    threads = _thread_count()
    print(READY, flush=True)

    gc.collect()
    op_ms = []
    errors = []
    counters: dict[str, float] = {}
    clock = time.perf_counter
    for item in items:
        span = tracer.begin(tracing.OP) if tracer is not None else None
        t0 = clock()
        try:
            out = workload.run(item)
        except Exception:  # an operation that raises counts as failed, the run goes on
            out = None
            errors.append(traceback.format_exc(limit=3))
        elapsed = clock() - t0
        if tracer is not None:
            tracer.end(span)
        op_ms.append(elapsed * 1e3)
        if out is None:
            continue
        try:
            for key, value in workload.check(item, out).items():
                counters[key] = counters.get(key, 0) + value
        except Exception as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        time.sleep(args.pause)

    result = {
        "attempted": len(items),
        "failed": len(errors),
        "correct": not problems,
        "problems": problems[:20],
        "errors": errors[:5],
        "op_ms": op_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_ms": import_ms,
        "threads": threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(items), import_ms, counters)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
