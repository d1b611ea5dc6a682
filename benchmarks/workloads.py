"""The benchmark workloads.

One operation is one complete `gevrey-kit` command.  `prepare` draws the
operation's inputs from a numpy generator, writes them to the config files
the command reads and returns the command line; `check` reads what the
command wrote and compares it with the independent references of
`checks`.  The program sees only the config files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass
class Operation:
    argv: list[str]
    params: dict
    output: Path
    report: Path | None = None

    def rows(self) -> list[dict]:
        return checks.parse_csv(self.output.read_text()) if self.output.exists() else []

    def report_json(self) -> dict | None:
        if self.report is None or not self.report.exists():
            return None
        return json.loads(self.report.read_text())


def _write_json(path: Path, value) -> str:
    path.write_text(json.dumps(value))
    return str(path)


class VerifyBounds:
    """`verify-bounds` on the pulled-back cubic or tanh benchmark.

    Fresh inputs per operation: the weight scale c of the sine modes and
    the config seed that draws the parameter points.
    """

    def __init__(self, name: str, why: str, nonlinearity: str, p: int, max_order: int):
        self.name, self.why = name, why
        self.cfg = {"mesh_n": 256, "p": p, "vartheta": 2.0,
                    "nonlinearity": {"kind": nonlinearity}, "max_order": max_order,
                    "y_samples": 1, "tol": 1e-12}
        self.rows_per_op = math.comb(p + max_order, p)

    def prepare(self, rng: np.random.Generator, workdir: Path) -> Operation:
        cfg = dict(self.cfg, c=round(float(rng.uniform(0.3, 0.6)), 6),
                   seed=int(rng.integers(2**31)))
        output, report = workdir / "bounds.csv", workdir / "summary.json"
        argv = ["verify-bounds", "--config", _write_json(workdir / "verify.json", cfg),
                "--output", str(output), "--report", str(report)]
        return Operation(argv, cfg, output, report)

    def check(self, op: Operation, exit_code: int) -> list[str]:
        return checks.check_verify(exit_code, op.rows(), self.rows_per_op,
                                   checks.verify_reference(op.params))


class DerivativesFd:
    """`derivatives --problem pde1d --fd-check` along two data directions.

    Fresh inputs per operation: the a, b and f amplitudes of each
    direction.  |a| and |b| stay at most 1/2, so every finite-difference
    point (at most four steps of 0.1) keeps a and b positive.
    """

    mesh_n = 256

    def __init__(self, name: str, why: str, order: int):
        self.name, self.why = name, why
        self.order = order
        self.rows_per_op = math.comb(2 + order, 2)

    def prepare(self, rng: np.random.Generator, workdir: Path) -> Operation:
        directions = []
        for _ in range(2):
            a, b = rng.uniform(-0.5, 0.5, 2)
            f = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
            directions.append({"a": round(float(a), 6), "b": round(float(b), 6),
                               "f": round(float(f), 6)})
        output = workdir / "derivatives.csv"
        argv = ["derivatives", "--problem", "pde1d", "--order", str(self.order),
                "--mesh-n", str(self.mesh_n),
                "--directions", _write_json(workdir / "directions.json", directions),
                "--fd-check", "--output", str(output)]
        return Operation(argv, {"directions": directions}, output)

    def check(self, op: Operation, exit_code: int) -> list[str]:
        reference = checks.derivatives_reference(self.mesh_n, op.params["directions"])
        return checks.check_derivatives(exit_code, op.rows(), self.rows_per_op, reference)


class SolveReport:
    """`solve --report` for -a u'' + b u**3 = f with zero Dirichlet data.

    Fresh inputs per operation: the constants a, b, f in [1/2, 2] and the
    seed of the monotonicity probe.
    """

    def __init__(self, name: str, why: str, mesh_n: int):
        self.name, self.why = name, why
        self.mesh_n = mesh_n
        self.rows_per_op = mesh_n + 1

    def prepare(self, rng: np.random.Generator, workdir: Path) -> Operation:
        a, b, f = (round(float(v), 6) for v in rng.uniform(0.5, 2.0, 3))
        cfg = {"mesh_n": self.mesh_n, "bc": "dirichlet", "a": a, "b": b, "f": f,
               "nonlinearity": {"kind": "cubic"}, "tol": 1e-12,
               "seed": int(rng.integers(2**31))}
        output, report = workdir / "solution.csv", workdir / "report.json"
        argv = ["solve", "--config", _write_json(workdir / "problem.json", cfg),
                "--output", str(output), "--report", str(report)]
        return Operation(argv, cfg, output, report)

    def check(self, op: Operation, exit_code: int) -> list[str]:
        return checks.check_solve(exit_code, op.rows(), op.report_json(), op.params,
                                  checks.solve_reference(op.params))


WORKLOADS = {
    w.name: w
    for w in (
        VerifyBounds("verify-cubic",
                     "parametric table fill with the degree cut-off: residual derivatives "
                     "and multi-index compositions dominate",
                     "cubic", p=4, max_order=5),
        VerifyBounds("verify-tanh",
                     "same command without a degree cut-off: tanh derivative polynomials "
                     "and the non-polynomial constants branch",
                     "tanh_shifted", p=3, max_order=5),
        DerivativesFd("derivatives-fd",
                      "directional set-partition engine plus hundreds of finite-difference "
                      "Newton solves and LU factorizations",
                      order=6),
        SolveReport("solve-report",
                    "one large solve whose cost is the dense mesh constants and the "
                    "sparse eigensolver branch",
                    mesh_n=4096),
    )
}
