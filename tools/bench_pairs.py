"""Alternating parent/change pairs of `benchmarks/run.py` runs, with the
gain verdict and the no-regression check.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seconds 25] [--seed-base S]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Pair i runs
`benchmarks/run.py --workload W --seed S+i --seconds T --trace 0` once in
each, the parent first in even pairs and the change first in odd ones.
Before and after each run the `__pycache__` directories under `src/` and
`benchmarks/` of that checkout are deleted, so every run starts from the
sources as a fresh checkout does (a stale cache reads `setup_s` about 20%
high); the runs themselves write only `.bench_out/`.

It prints every run's end-to-end metrics and failed operations, each side's
median and quartiles per end-to-end metric, and for each metric the wins
of the change, the gain verdict (at least 9/10 of the pairs won and a
median gap above the parent's interquartile range) and the no-regression
verdict against the bound of CHANGE_DIR's BENCHMARK.json.  Exits 1 when a
run fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent: list, change: list, better: str) -> int:
    """Pairs whose change run reads better than its parent run; ties count
    for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0.0 for p, c in zip(parent, change, strict=True))


def gain_verdict(parent: list, change: list, better: str) -> tuple[bool, str]:
    """A gain holds when the change wins at least nine tenths of the pairs
    and its median is better than the parent's by more than the distance
    between the parent's quartiles."""
    won = wins(parent, change, better)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    gap = (pm - cm) if better == "lower" else (cm - pm)
    held = 10 * won >= 9 * len(parent) and gap > p3 - p1
    return held, (f"wins {won}/{len(parent)}, median gap {gap:.6g} "
                  f"({gap / pm:+.2%} of the parent's), parent IQR {p3 - p1:.6g}")


def regression_verdict(parent: list, change: list, better: str, bound: float) -> str:
    """`ok` when the change's median is no worse than the parent's by more
    than the relative bound, `REGRESSION` when it is; `unresolved` when the
    parent's own spread (its interquartile range over its median) exceeds
    the bound, unless every change run reads better than every parent run."""
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    every = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if (p3 - p1) / pm > bound and not every:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def clear_caches(root: Path) -> None:
    for top in ("src", "benchmarks"):
        for cache in (root / top).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    clear_caches(root)
    try:
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=root, capture_output=True, text=True)
    finally:
        clear_caches(root)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    samples = {"parent": {name: [] for name in metrics}, "change": {name: [] for name in metrics}}
    failed = {"parent": [0, 0], "change": [0, 0]}  # failed and attempted operations
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            try:
                result = run_once(sides[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            values = {name: result["metrics"][name]["value"] for name in metrics}
            for name, value in values.items():
                samples[side][name].append(value)
            failed[side][0] += result["failed"]
            failed[side][1] += result["attempted"]
            print(f"pair {i} seed {seed} {side}: "
                  + " ".join(f"{name}={value:.6g}" for name, value in values.items())
                  + f" failed={result['failed']}/{result['attempted']}", flush=True)

    for side, (bad, attempted) in failed.items():
        print(f"failed operations {side}: {bad}/{attempted}")
    for name, metric in metrics.items():
        parent, change = samples["parent"][name], samples["change"][name]
        for side, values in (("parent", parent), ("change", change)):
            q1, med, q3 = quartiles(values)
            print(f"{name} {side}: median {med:.6g} quartiles {q1:.6g} {q3:.6g} {metric['unit']}")
        held, detail = gain_verdict(parent, change, metric["better"])
        print(f"{name} gain: {'HELD' if held else 'NOT MET'} ({detail})")
        print(f"{name} no-regression (bound {metric['bound']:.0%}): "
              f"{regression_verdict(parent, change, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
