"""Output checks for the benchmark operations.

Every check compares what a `gevrey-kit` command wrote against a value
computed by a route that shares no code with the command's derivative
engine: difference quotients of separate black-box Newton solves, closed
forms of the continuous problem, or scipy's own boundary value solver.
Each `check_*` function takes the parsed outputs and a reference and
returns a list of problems, empty when the output is correct; the
`*_reference` functions compute the references from an operation's
inputs.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from gevrey_kit.pde1d import Mesh1D, Nonlinearity, PdeData, newton_solve

# Steps of the difference quotients in the parameter and the data
# directions.  The stencils below have truncation error O(h**4).  Measured
# worst relative disagreement with the engine over a few dozen operations:
# parameter partials (h = 0.02) 3e-12 at order 1 and 4e-9 at order 2; data
# directions (h = 0.005) 8e-11 at orders 1 and 2.
PARAMETER_STEP = 0.02
DATA_STEP = 0.005
FD_TOL = {1: 1e-8, 2: 1e-6}
# The CLI prints norms with 12 significant digits.
PRINT_FLOOR = 1e-10
# Continuous values that the discrete constants approach at mesh 4096:
# c_pf is off by about 2.5e-9 and the embedding constant by about 2e-11.
CONSTANT_TOL = {"c_pf": 1e-7, "embedding": 1e-9}
SOLUTION_TOL = 1e-8
NEWTON_TOL = 1e-13


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def h1_norm(nodes: np.ndarray, full: np.ndarray) -> float:
    """Exact H1 norm of the P1 interpolant of nodal values `full`."""
    h = np.diff(nodes)
    left, right = full[:-1], full[1:]
    l2 = np.sum(h / 3.0 * (left * left + left * right + right * right))
    grad = np.sum((right - left) ** 2 / h)
    return math.sqrt(float(l2 + grad))


def _nonlinearity(kind: str) -> Nonlinearity:
    return Nonlinearity.cubic() if kind == "cubic" else Nonlinearity.tanh_shifted()


def _stencil_derivatives(solve, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative at 0 of t -> solve(t), five-point stencils."""
    um2, um1, u0, up1, up2 = (solve(t * h) for t in (-2, -1, 0, 1, 2))
    first = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * h)
    second = (-um2 + 16.0 * um1 - 30.0 * u0 + 16.0 * up1 - up2) / (12.0 * h * h)
    return first, second


def _close(value: float, reference: float, rel: float, floor: float = 0.0) -> bool:
    return abs(value - reference) <= rel * abs(reference) + floor


# -- verify-bounds -------------------------------------------------------------


def verify_reference(cfg: dict) -> dict[tuple[int, str], float]:
    """H1 norms of the pure partials e_k and 2e_k at every sampled point.

    The parameter points are redrawn exactly as `verify-bounds` documents
    (numpy PCG64 seeded by the config, uniform on [-1/2, 1/2]^p), the
    pulled-back data a/W, W b, W f are built here from the sine-mode
    family, and each partial is a difference quotient of Newton solves.
    """
    mesh = Mesh1D.uniform(cfg["mesh_n"])
    nl = _nonlinearity(cfg["nonlinearity"]["kind"])
    p, c, vartheta = cfg["p"], cfg["c"], cfg["vartheta"]
    x = mesh.quad_x
    modes = [c * k ** (-vartheta) * np.cos(k * math.pi * x) for k in range(1, p + 1)]
    rng = np.random.default_rng(cfg["seed"])
    ys = [rng.uniform(-0.5, 0.5, p) for _ in range(cfg["y_samples"])]

    def solve(y: np.ndarray) -> np.ndarray:
        w = 1.0 + sum(yk * m for yk, m in zip(y, modes))
        data = PdeData(1.0 / w, w.copy(), w.copy(), 0.0)
        return mesh.expand(newton_solve(mesh, data, nl, tol=NEWTON_TOL))

    out = {}
    for y_id, y in enumerate(ys):
        for k in range(p):
            unit = np.zeros(p)
            unit[k] = 1.0
            first, second = _stencil_derivatives(lambda t: solve(y + t * unit),
                                                  PARAMETER_STEP)
            out[(y_id, f"e{k + 1}")] = h1_norm(mesh.nodes, first)
            out[(y_id, f"2e{k + 1}")] = h1_norm(mesh.nodes, second)
    return out


def check_verify(exit_code: int, rows: list[dict], expected_rows: int,
                 reference: dict[tuple[int, str], float]) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    by_key = {(int(r["y_id"]), r["alpha"]): r for r in rows}
    if len(by_key) != len(rows):
        problems.append("repeated (alpha, y_id) rows")
    for r in rows:
        if not float(r["ratio"]) <= 1.0:
            problems.append(f"ratio {r['ratio']} > 1 at {r['alpha']}, y {r['y_id']}")
    for (y_id, label), ref in reference.items():
        row = by_key.get((y_id, label))
        if row is None:
            problems.append(f"missing row {label}, y {y_id}")
            continue
        order = 2 if label.startswith("2") else 1
        if not _close(float(row["measured_norm"]), ref, FD_TOL[order], PRINT_FLOOR):
            problems.append(
                f"{label}, y {y_id}: norm {row['measured_norm']} vs difference quotient {ref:.12g}"
            )
    return problems


# -- derivatives --problem pde1d ------------------------------------------------


def _direction(mesh: Mesh1D, spec: dict) -> PdeData:
    return PdeData.from_spec(mesh, a=spec.get("a", 0.0), b=spec.get("b", 0.0),
                             f=spec.get("f", 0.0), g=spec.get("g", 0.0))


def derivatives_reference(mesh_n: int, directions: list[dict]) -> dict[str, float]:
    """H1 norms of the order-1 and order-2 table entries from difference
    quotients of Newton solves of the cubic benchmark a = b = f = 1."""
    mesh = Mesh1D.uniform(mesh_n)
    nl = Nonlinearity.cubic()
    base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    dirs = [_direction(mesh, spec) for spec in directions]

    def solve(data: PdeData) -> np.ndarray:
        return mesh.expand(newton_solve(mesh, data, nl, tol=NEWTON_TOL))

    out = {}
    for i, d in enumerate(dirs):
        first, second = _stencil_derivatives(lambda t: solve(base + t * d), DATA_STEP)
        out[f"{i + 1}"] = h1_norm(mesh.nodes, first)
        out[f"{i + 1}+{i + 1}"] = h1_norm(mesh.nodes, second)
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            def mixed(h: float) -> np.ndarray:
                corners = [s * t * solve(base + (s * h) * dirs[i] + (t * h) * dirs[j])
                           for s in (1.0, -1.0) for t in (1.0, -1.0)]
                return sum(corners) / (4.0 * h * h)
            coarse, fine = mixed(2.0 * DATA_STEP), mixed(DATA_STEP)
            out[f"{i + 1}+{j + 1}"] = h1_norm(mesh.nodes, (4.0 * fine - coarse) / 3.0)
    return out


def check_derivatives(exit_code: int, rows: list[dict], expected_rows: int,
                      reference: dict[str, float]) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    by_key = {r["key"]: r for r in rows}
    n_checked = 0
    for r in rows:
        if r["fd_norm"] == "":
            continue
        n_checked += 1
        norm, fd_norm = float(r["norm"]), float(r["fd_norm"])
        indicator = float(r["fd_error_indicator"])
        if not abs(norm - fd_norm) <= indicator + PRINT_FLOOR * max(norm, 1.0):
            problems.append(
                f"{r['key']}: |norm - fd_norm| = {abs(norm - fd_norm):.3g} "
                f"exceeds indicator {indicator:.3g}"
            )
    if n_checked == 0:
        problems.append("no finite-difference columns")
    for key, ref in reference.items():
        row = by_key.get(key)
        if row is None:
            problems.append(f"missing row {key}")
            continue
        order = key.count("+") + 1
        if not _close(float(row["norm"]), ref, FD_TOL[order], PRINT_FLOOR):
            problems.append(f"{key}: norm {row['norm']} vs difference quotient {ref:.12g}")
    return problems


# -- solve --report ------------------------------------------------------------


def solve_reference(cfg: dict) -> dict:
    """Continuous-problem values for -a u'' + b u**3 = f, u(0) = u(1) = 0,
    with constant a, b, f: scipy's collocation solver for u, and closed
    forms for the Poincare constant of the full H1 norm and the sup-norm
    embedding constant (square root of the Green's function of -u'' + u
    at x = 1/2)."""
    from scipy.integrate import solve_bvp

    a, b, f = cfg["a"], cfg["b"], cfg["f"]

    def rhs(_, z):
        return np.vstack([z[1], (b * z[0] ** 3 - f) / a])

    def bc(za, zb):
        return np.array([za[0], zb[0]])

    x = np.linspace(0.0, 1.0, 65)
    guess = np.vstack([0.5 * f / a * x * (1.0 - x), 0.5 * f / a * (1.0 - 2.0 * x)])
    sol = solve_bvp(rhs, bc, x, guess, tol=1e-11, max_nodes=200000)
    if not sol.success:
        raise RuntimeError(f"reference boundary value solve failed: {sol.message}")
    return {
        "u": lambda xs: sol.sol(xs)[0],
        "c_pf": math.sqrt(1.0 + 1.0 / math.pi**2),
        "embedding": math.sqrt(math.sinh(0.5) ** 2 / math.sinh(1.0)),
    }


def check_solve(exit_code: int, rows: list[dict], report: dict | None, cfg: dict,
                reference: dict) -> list[str]:
    problems = []
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if len(rows) != cfg["mesh_n"] + 1:
        problems.append(f"{len(rows)} nodal rows, expected {cfg['mesh_n'] + 1}")
    if report is None:
        return problems + ["no report"]
    if not report["residual_norm"] <= cfg["tol"]:
        problems.append(f"residual norm {report['residual_norm']:.3g} > tol")
    for name, chk in report["bound_checks"].items():
        if chk["ok"] is not True:
            problems.append(f"bound check {name} not ok")
    consts = report["constants"]
    if not consts["alpha_measured"] <= consts["alpha"]:
        problems.append("alpha_measured exceeds alpha")
    for name, tol in CONSTANT_TOL.items():
        if not _close(consts[name], reference[name], 0.0, tol):
            problems.append(f"{name} = {consts[name]!r}, continuous value {reference[name]!r}")
    xs = np.array([float(r["x"]) for r in rows])
    us = np.array([float(r["u"]) for r in rows])
    if len(xs):
        err = float(np.max(np.abs(us - reference["u"](xs))))
        if not err <= SOLUTION_TOL:
            problems.append(f"nodal values off the boundary value solution by {err:.3g}")
    return problems
