"""Benchmark of the enhq library and CLI: fixed work, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hydrogen_contrast --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every workload runs in fresh processes (``worker.py``), one at a time,
that import the program from ``src/`` with one BLAS/OpenMP thread.  With
``--trace 0`` the run splits its fixed list of operations over
:data:`PROCESSES` processes, each timed from start to ready, and prints the
end-to-end metrics.  With ``--trace 1`` it runs one round of the list once
untraced and once traced, in one process each, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
with the machine facts, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("metric_grid", "hydrogen_contrast", "expression_flows", "cli_cycle")

#: Operations each second of ``--seconds`` asks for.  A run executes whole
#: rounds of ``ROUND`` operations, at least one, so the count depends only on
#: ``--seconds`` and is the same on every commit.  The host's speed swings by
#: 20% between 4 s windows, and the mean over a run evens out part of it: in
#: hydrogen_contrast rounds timed back to back, sets of ten consecutive
#: windows spread 18% as 8 s windows, 14% as 24 s ones and 12% as 40 s ones
#: (IQR/median, median over sets).  At the 40 s of ``BENCHMARK.json`` each
#: run times about 40 s of work: 400 operations of about 0.1 s on
#: hydrogen_contrast and 80 of about 0.5 s on cli_cycle.  More would not fit
#: every run of the benchmark in its time limit on a host a third slower.
#: Host stalls of about 10 ms hit a few percent of metric_grid's 9 ms
#: operations; with more than about 100 operations its tail percentile
#: climbed into them and varied 40-60% between runs, so it asks for 80.
WORK_PER_SECOND = {
    "metric_grid": 2,
    "hydrogen_contrast": 10,
    "expression_flows": 5,
    "cli_cycle": 2,
}
ROUND = 40

#: Idle seconds after each operation.  The host's speed swings by 15-20%
#: between windows a tenth of a second apart and by about 7% between 8 s
#: windows; metric_grid's 80 operations of 9 ms would sample it over 0.7 s
#: only, so they are spread over about 8 s.
PAUSE_S = {"metric_grid": 0.1}

#: Processes a ``--trace 0`` run splits its operations over.  Each is timed
#: from start to ready and ``setup_s`` is their median.  Three processes set
#: up in 3-4 s of a run; five took 5-7 s, time the runs of the benchmark
#: need for timed work to fit their limit.  Process ``k`` runs with
#: ``PYTHONHASHSEED=k+1``, so the dictionary layouts, one source of the
#: differences between processes running the same operations, are the same
#: on every run.
PROCESSES = 3

#: Two BLAS threads made one metric loop vary 101-140 ops/s across runs on
#: two cores, against 114-122 with one; the measured process gets one.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Every run of the benchmark ends within this many seconds.
DEADLINE_S = 170.0

READY = b"perfbench-ready"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not complete a run."""


def ops_for(workload: str, seconds: int) -> int:
    return ROUND * max(1, round(seconds * WORK_PER_SECOND[workload] / ROUND))


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if "_per_" in name:
        return "ratio"
    return "count"


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten values beyond it: ``(value, percentile, beyond)``."""
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def _wait_ready(proc, deadline: float) -> float:
    """Read the child's output until the ready token; returns the time it arrived."""
    buf = b""
    fd = proc.stdout.fileno()
    while READY not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise HarnessError("timed out waiting for the workload process to set up")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise HarnessError(f"workload process exited during set-up (code {proc.wait()})")
        buf += chunk
    return time.perf_counter()


def run_process(workload, seed, n_ops, part, parts, trace, deadline, spans=None):
    """Start one worker on its share of the operations; returns ``(setup_s, result)``."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE))
    result_path = scratch / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=str(part + 1), **THREAD_ENV)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--ops", str(n_ops),
        "--part", str(part), "--parts", str(parts), "--trace", str(trace),
        "--pause", str(PAUSE_S.get(workload, 0.0)),
        "--scratch", str(scratch / "work"), "--result", str(result_path),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        ready = _wait_ready(proc, deadline)
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise HarnessError(f"workload process exited with code {proc.returncode}")
        return ready - start, json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        raise HarnessError("timed out waiting for the workload process") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


def merge(results: list[dict]) -> dict:
    """One result from the processes that shared a run's operations."""
    return dict(
        results[0],
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        correct=all(r["correct"] for r in results),
        problems=[p for r in results for p in r["problems"]],
        errors=[e for r in results for e in r["errors"]],
        op_ms=[t for r in results for t in r["op_ms"]],
        peak_rss_mb=max(r["peak_rss_mb"] for r in results),
        threads=max(r["threads"] or 0 for r in results),
    )


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    ops = result["op_ms"]
    completed = len(ops) - result["failed"]
    tail_ms, pct, beyond = tail(ops)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / (sum(ops) / 1e3),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} processes",
        "op_tail_ms": f"p{pct:.2f}, {beyond} operations beyond it, n={len(ops)}",
    }
    return values, notes


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    load_start = _loadavg()
    # Per-layer counts and times are per operation over whole rounds of the
    # pool, so a traced run's one round gives the figures of the longer list.
    n_ops = ROUND if trace else ops_for(workload, seconds)
    STATE.mkdir(exist_ok=True)
    results_dir = STATE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"

    if trace:
        _, plain = run_process(workload, seed, n_ops, 0, 1, 0, deadline)
        spans = results_dir / f"{workload}-spans.tsv.gz"  # the latest traced run only
        _, result = run_process(workload, seed, n_ops, 0, 1, 1, deadline, spans=spans)
        values = dict(result["layers"])
        rate = [(len(r["op_ms"]) - r["failed"]) / sum(r["op_ms"]) for r in (plain, result)]
        values["trace.overhead_pct"] = 100.0 * (rate[0] - rate[1]) / rate[0]
        notes = {"trace.overhead_pct": "ops_per_s untraced against traced"}
        units = {name: layer_unit(name) for name in values}
        result["correct"] = result["correct"] and plain["correct"]
    else:
        parts = [run_process(workload, seed, n_ops, k, PROCESSES, 0, deadline)
                 for k in range(PROCESSES)]
        result = merge([r for _, r in parts])
        values, notes = end_to_end(result, [s for s, _ in parts])
        units = END_TO_END_UNITS

    machine = {
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "python_hash_seeds": "1" if trace else f"1-{PROCESSES}",
        "worker_threads": result["threads"],
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "notes": notes, "machine": machine,
        "problems": result["problems"], "errors": result["errors"],
        "op_ms": result["op_ms"],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{workload}: seed {seed}, {result['attempted']} operations, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'INCORRECT'}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:14.6g} {units[name]}{note}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for line in result["problems"][:3] + result["errors"][:1]:
        print(f"  problem: {line.strip()}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so ``run_process`` kills and waits for its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "enhq" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src' / 'enhq'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
