"""Benchmark of the gevrey-kit certificate pipeline.

    python3 benchmarks/run.py --workload verify-cubic --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --quick

One run drives `gevrey_kit.cli.main` in this process, from the `src`
directory next to this one, for `--seconds` seconds of wall time.  Every
operation is one complete command on fresh seeded inputs, timed alone
(its wall time corrected for the machine's speed drift, see REFERENCE_S)
and then checked against independent computations (see `checks`).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of `tracing.PER_LAYER` with `--trace 1`.  A copy with the
raw samples and the machine goes to `.bench_out/BENCH_*.json`.

`--quick` runs one checked operation of every workload and exits 0 when
all of them pass.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the single-threaded baseline.  Set before numpy
# loads, and inherited by the set-up probes.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = [("setup_s", "s"), ("op_s", "s"), ("rows_per_s", "rows/s"),
              ("peak_rss_mib", "MiB")]
# Reported with the per-layer metrics: the traced runs' own operation time
# and its excess over the untraced operations of the same run.
TRACE_SUMMARY = [("trace.op_s", "s"), ("trace.overhead_pct", "%")]

# The speed of the host drifts by up to 2x over tens of seconds (measured on
# a 2-vCPU VM, in the CPU time of the process as much as in wall time), far
# more than a bound on a wall-time median can absorb.  Every timed operation
# is therefore bracketed by a fixed reference kernel, and its wall time is
# scaled by REFERENCE_S / (mean of the two kernel times).  REFERENCE_S is the
# kernel's median time on that VM, so op_s reads in its seconds.
REFERENCE_S = 0.0155

SETUP_SAMPLES = 7
SETUP_PROBE = ("import time, gevrey_kit.cli; "
               "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
SETUP_TIMEOUT_S = 60


class BenchmarkError(Exception):
    """The benchmark cannot run here."""


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until `gevrey_kit.cli` is
    imported and ready."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import gevrey_kit.cli: {proc.stderr.strip()}")
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def import_program():
    if not (SRC / "gevrey_kit" / "cli.py").is_file():
        raise BenchmarkError(f"no gevrey_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gevrey_kit.cli

    if Path(gevrey_kit.cli.__file__).resolve().parent != (SRC / "gevrey_kit").resolve():
        raise BenchmarkError(f"gevrey_kit was imported from {gevrey_kit.cli.__file__}")
    return gevrey_kit.cli.main


def reference_seconds() -> float:
    """Wall time of a fixed mix of the kinds of work the program does:
    small-array arithmetic, interpreter dict updates, sparse LU solves and
    a dense matrix product."""
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 768).reshape(256, 3)
    b = a[::-1].copy()
    s = a
    for _ in range(1000):
        s = (s * b + a) * 0.5
    counts: dict[int, int] = {}
    for i in range(25000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    for _ in range(15):
        mat = sp.diags([np.full(254, -1.0), np.full(255, 2.5), np.full(254, -1.0)],
                       [-1, 0, 1], format="csc")
        spla.splu(mat).solve(np.ones(255))
    m = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    x = m
    for _ in range(10):
        x = (m @ x) * 1e-3
    return time.perf_counter() - start


def run_operation(workload, rng, workdir: Path, call) -> tuple[float, float, list[str]]:
    """Prepare, time and check one operation.  Returns its wall seconds,
    the mean reference-kernel seconds right before and after it, and the
    problems the checks found."""
    op = workload.prepare(rng, workdir)
    before = reference_seconds()
    start = time.perf_counter()
    try:
        exit_code = call(op.argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        exit_code, problems = None, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    reference = 0.5 * (before + reference_seconds())
    if exit_code is None:
        return seconds, reference, problems
    try:
        return seconds, reference, workload.check(op, exit_code)
    except Exception as exc:  # output the checks cannot read is wrong output
        return seconds, reference, [f"check raised {type(exc).__name__}: {exc}"]


def machine() -> dict:
    import scipy

    return {"platform": platform.platform(), "processor": platform.processor(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": PINNED_THREADS}


def quick(cli_main) -> int:
    from workloads import WORKLOADS

    workdir = OUT / f"quick-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, workload in WORKLOADS.items():
            seconds, _, problems = run_operation(workload, np.random.default_rng([0, 0]),
                                                 workdir, cli_main)
            ok &= not problems
            print(f"{name}: {seconds:.3f} s, {'ok' if not problems else problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def benchmark(cli_main, workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = Tracer()

    def traced_main(argv):
        with tracer.installed():
            return tracer.call(cli_main, argv)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # One round is one operation, or an untraced and a traced one.
    round_calls = [cli_main, traced_main] if traced else [cli_main]
    # Per kind of call: (wall seconds, reference-kernel seconds) per operation.
    times: dict[int, list[tuple[float, float]]] = {0: [], 1: []}
    layers: list[dict] = []
    tables: list[dict] = []
    last_spans: list[tuple] = []
    setup: list[float] = []
    problems_seen: list[str] = []
    index = 0
    try:
        # The first probe writes the bytecode caches of a fresh checkout, and
        # the first operation pays the process's one-off costs (lazy imports,
        # first LAPACK calls): both are kept out of the metrics.  The first
        # operation is still checked and counted.
        measure_setup()
        first_s, _, problems = run_operation(workload, np.random.default_rng([seed, index]),
                                             workdir, cli_main)
        attempted, failed, index = 1, int(bool(problems)), 1
        problems_seen += problems
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < seconds:
            # Set-up probes are spread over the run, like the operations, so
            # that both see the same phases of a machine whose speed drifts.
            if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(measure_setup())
            for kind, call in enumerate(round_calls):
                wall_s, reference_s, problems = run_operation(
                    workload, np.random.default_rng([seed, index]), workdir, call)
                index += 1
                attempted += 1
                failed += bool(problems)
                problems_seen += problems
                times[kind].append((wall_s, reference_s))
                if kind == 1:
                    metrics, table, last_spans = tracer.collect()
                    layers.append(metrics)
                    tables.append(table)
        while len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems_seen[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    corrected = {kind: [wall * REFERENCE_S / ref for wall, ref in samples]
                 for kind, samples in times.items()}
    op_s = statistics.median(corrected[0])
    if traced:
        traced_s = statistics.median(corrected[1])
        values = {name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER}
        values["trace.op_s"] = traced_s
        values["trace.overhead_pct"] = 100.0 * (traced_s / op_s - 1.0)
        units = PER_LAYER + TRACE_SUMMARY
    else:
        values = {"setup_s": statistics.median(setup), "op_s": op_s,
                  "rows_per_s": workload.rows_per_op / op_s,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload_name, seed=seed, seconds=seconds, trace=int(traced),
                  machine=machine(), setup_samples=setup, first_op_s=first_s,
                  reference_s=REFERENCE_S, op_samples=corrected[0],
                  traced_op_samples=corrected[1], wall_and_reference_samples=times,
                  rows_per_op=workload.rows_per_op, layer_tables=tables,
                  last_traced_spans=last_spans)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{workload_name}_seed{seed}_trace{int(traced)}.json"
    path.write_text(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run one checked operation of every workload")
    args = parser.parse_args(argv)
    try:
        cli_main = import_program()
        if args.quick:
            return quick(cli_main)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        result = benchmark(cli_main, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
