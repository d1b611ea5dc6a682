"""Write the byte-identity set of gevrey-kit outputs to a directory.

    PYTHONPATH=src python3 tools/identity_set.py OUTDIR

Runs, through `gevrey_kit.cli.main`, the commands whose outputs a change
that claims the same numbers must leave byte-identical:

* `verify-bounds` for cubic (p = 4) and tanh_shifted (p = 3), order 5,
  mesh 256, seeds 1-3, y_samples 1 and 2: CSV and report;
* `verify-bounds` for cubic and tanh_shifted at p = 8, order 6, mesh 64,
  seed 1, y_samples 1 (3 004 rows each), where 7 of the 15 (m, k) Cauchy
  products of the Taylor fill are formed in row blocks
  (`combinatorics._BLOCK_BYTES`): CSV and report;
* `verify-bounds` for the polynomial nonlinearity with coefficients
  [1.0, 0.5, 1.0] (a sum of several powers in the composition of the
  Taylor fill), p = 3, order 5, mesh 256, seed 1,
  y_samples 2: CSV and report;
* `verify-bounds` for the polynomial nonlinearity with coefficients
  [1.0] (N = z, the one polynomial whose single power is the inner
  function q itself), p = 3, order 5, mesh 256, seed 1, y_samples 2:
  CSV and report;
* `derivatives --problem pde1d --order 6 --fd-check` along two {a, b, f}
  directions at mesh 256: CSV;
* `derivatives --problem pde1d --order 4 --fd-check` along the directions
  {f: 10} and {a: 0.5, b: 2} at mesh 256, whose stencil points converge
  in different numbers of Newton steps, so that a block of the stacked
  solve drops its converged points (down to one) and goes on: CSV;
* `derivatives --problem pde1d --order 4 --fd-check` along the three
  directions {f: 1}, {a: 0.2, b: 0.1} and {a: -0.3, b: 0.25, f: -0.5} at
  mesh 64, where 48 of the 385 (step, c) stencil points coincide with a
  point of the step before and are solved once: CSV;
* `derivatives --problem pde1d --order 2 --mesh-n 4096 --fd-check` along
  the default direction, where a Gauss-point field fills the stack budget
  (`pde1d._STACK_BYTES`), so every Newton round solves one point: CSV;
* `derivatives --problem scalar-cubic` and `--problem scalar-quadratic`,
  `--order 8 --fd-check` along the directions [1.0, 0.5, -0.25]: CSV;
* `solve --report` for cubic at mesh 4096, once with Dirichlet ends and
  once with a Neumann right end (g = 0.5), so the eigenvalue bisection of
  `alpha_measured` runs at the benchmark's size with both right ends, for
  tanh_shifted with a Neumann right end (g = 0.5) at mesh 512, and for the
  polynomial [1.0, 0.5, 1.0] with a Neumann right end and a list-valued
  diffusion field a (min a = 0.5 < 1) at mesh 512: CSV and report;
* `selftest`: stdout.

Every exit code goes to OUTDIR/exit_codes.txt.  Run it once with the
parent's sources on PYTHONPATH and once with the change's, into two
directories, and compare them with `diff -r`, or, where a change moves
numbers on purpose, with `tools/compare_outputs.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from gevrey_kit.cli import main


def _config(out: Path, name: str, value) -> str:
    path = out / "inputs" / name
    path.write_text(json.dumps(value, sort_keys=True))
    return str(path)


def commands(out: Path):
    """(name, argv) of every command of the set; inputs go to out/inputs."""
    runs = [(f"verify-{kind}-seed{seed}-y{y_samples}", {"kind": kind}, p, 5, 256, seed, y_samples)
            for kind, p in (("cubic", 4), ("tanh_shifted", 3))
            for seed in (1, 2, 3) for y_samples in (1, 2)]
    runs += [(f"verify-{kind}-p8-order6", {"kind": kind}, 8, 6, 64, 1, 1)
             for kind in ("cubic", "tanh_shifted")]
    runs.append(("verify-polynomial-seed1-y2",
                 {"kind": "polynomial", "coeffs": [1.0, 0.5, 1.0]}, 3, 5, 256, 1, 2))
    runs.append(("verify-linear-seed1-y2",
                 {"kind": "polynomial", "coeffs": [1.0]}, 3, 5, 256, 1, 2))
    for name, nonlinearity, p, order, mesh_n, seed, y_samples in runs:
        cfg = {"mesh_n": mesh_n, "p": p, "c": 0.5, "vartheta": 2.0,
               "nonlinearity": nonlinearity, "max_order": order,
               "y_samples": y_samples, "seed": seed, "tol": 1e-12}
        yield name, ["verify-bounds", "--config", _config(out, f"{name}.json", cfg),
                     "--output", str(out / f"{name}.csv"),
                     "--report", str(out / f"{name}.json")]
    directions = [{"a": 0.2, "b": 0.1, "f": 1.0}, {"a": -0.3, "b": 0.25, "f": -0.5}]
    yield "derivatives-fd", [
        "derivatives", "--problem", "pde1d", "--order", "6", "--mesh-n", "256",
        "--directions", _config(out, "directions.json", directions), "--fd-check",
        "--output", str(out / "derivatives-fd.csv")]
    uneven = [{"f": 10.0}, {"a": 0.5, "b": 2.0}]
    yield "derivatives-fd-uneven", [
        "derivatives", "--problem", "pde1d", "--order", "4", "--mesh-n", "256",
        "--directions", _config(out, "uneven-directions.json", uneven), "--fd-check",
        "--output", str(out / "derivatives-fd-uneven.csv")]
    three = [{"f": 1.0}, {"a": 0.2, "b": 0.1}, {"a": -0.3, "b": 0.25, "f": -0.5}]
    yield "derivatives-fd-three", [
        "derivatives", "--problem", "pde1d", "--order", "4", "--mesh-n", "64",
        "--directions", _config(out, "three-directions.json", three), "--fd-check",
        "--output", str(out / "derivatives-fd-three.csv")]
    yield "derivatives-fd-mesh4096", [
        "derivatives", "--problem", "pde1d", "--order", "2", "--mesh-n", "4096", "--fd-check",
        "--output", str(out / "derivatives-fd-mesh4096.csv")]
    for problem in ("scalar-cubic", "scalar-quadratic"):
        yield f"derivatives-{problem}", [
            "derivatives", "--problem", problem, "--order", "8",
            "--directions", _config(out, "scalar-directions.json", [1.0, 0.5, -0.25]),
            "--fd-check", "--output", str(out / f"derivatives-{problem}.csv")]
    for name, cfg in (
            ("solve-cubic", {"mesh_n": 4096, "bc": "dirichlet", "a": 1.0, "b": 1.0, "f": 1.0,
                             "nonlinearity": {"kind": "cubic"}, "seed": 1}),
            ("solve-cubic-neumann", {"mesh_n": 4096, "bc": "neumann", "a": 1.0, "b": 1.0,
                                     "f": 1.0, "g": 0.5, "nonlinearity": {"kind": "cubic"},
                                     "seed": 1}),
            ("solve-tanh", {"mesh_n": 512, "bc": "neumann", "a": 1.0, "b": 1.0, "f": 1.0,
                            "g": 0.5, "nonlinearity": {"kind": "tanh_shifted"}, "seed": 1}),
            ("solve-polynomial", {"mesh_n": 512, "bc": "neumann",
                                  "a": [0.5 + 0.25 * (i % 5) for i in range(3 * 512)],
                                  "b": 1.0, "f": 1.0, "g": 0.5,
                                  "nonlinearity": {"kind": "polynomial",
                                                   "coeffs": [1.0, 0.5, 1.0]}})):
        yield name, ["solve", "--config", _config(out, f"{name}.json", cfg),
                     "--output", str(out / f"{name}.csv"), "--report", str(out / f"{name}.json")]


def main_(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    out = Path(argv[0])
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    codes = []
    for name, args in commands(out):
        codes.append(f"{name} {main(args)}\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes.append(f"selftest {main(['selftest'])}\n")
    (out / "selftest.txt").write_text(stdout.getvalue())
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
