"""Batch command line front end (`gevrey-kit`).

Subcommands
-----------
kappa          CSV of little Schroeder numbers and growth diagnostics.
envelope       Implicit-map envelope constants from a JSON config.
solve          One semilinear solve from a JSON problem spec.
derivatives    Solution-derivative table for a named problem.
verify-bounds  Parametric derivative-bound verification.
selftest       Run the built-in verification suite.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 bound violation (verify-bounds).  Output files are written atomically
(temp file plus rename), and runs are deterministic: identical config and
seed give byte-identical output.  Random draws use numpy's default
generator (PCG64).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import __version__
from .combinatorics import (
    C_KAPPA,
    kappa_asymptotic_log,
    schroeder_hipparchus_sequence,
)
from .envelopes import (
    GevreyEnvelope,
    StabilityConstant,
    convergence_radius,
    exp_or_inf,
    implicit_envelope,
)
from .implicit_diff import (
    LinearizationError,
    NonConvergenceError,
    derivative_table,
    finite_difference_table,
    scalar_cubic_oracle,
    scalar_quadratic_oracle,
    solve_residual_stack,
)
from .parametric import DomainMap1D, verify_derivative_bounds
from .pde1d import (
    Mesh1D,
    Nonlinearity,
    PdeData,
    PdeOracle,
    SolutionBoundError,
    estimate_constants,
    monotonicity_certificate,
    newton_solve,
)


class ConfigError(Exception):
    """Invalid command line or JSON configuration."""


class _Parser(argparse.ArgumentParser):
    """An unusable command line is a configuration error: exit 1, where
    argparse exits 2, the code of a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_text(path: str, text: str) -> None:
    """Write through a temp file and a rename; a path that cannot be
    written is a configuration error, and leaves no temp file behind."""
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gevrey-tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output_directories(args) -> None:
    """An empty output path, one in a missing directory, one that is a
    directory, one whose file name is longer than its directory allows
    (NAME_MAX bytes), or an output and a report that name one file (after
    `./`, `..` and symbolic links are resolved), is a configuration error
    before any work, so the run leaves no output of its own behind."""
    paths = [getattr(args, "output", None), getattr(args, "report", None)]
    for path in paths:
        if path == "":
            raise ConfigError("cannot write an empty path")
        if path is None:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write {path}: no such directory")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: is a directory")
        name_max = os.pathconf(directory, "PC_NAME_MAX")  # -1: no limit
        if 0 <= name_max < len(os.fsencode(os.path.basename(path))):
            raise ConfigError(f"cannot write {path}: file name too long")
    if None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ConfigError(f"--output {paths[0]} and --report {paths[1]} name one file")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _read_json_config(path: str, allowed: set[str], required: set[str]) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return cfg


def _number(value, name: str, integer: bool = False, nonnegative: bool = False):
    """A finite JSON number as a float, or as an int when `integer`;
    booleans, strings, null, NaN, infinities, for an integer non-integral
    values and, when `nonnegative`, negative values are config errors."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number")
    if nonnegative and value < 0:
        raise ConfigError(f"{name} must be nonnegative")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer")
    return int(value)


def _numbers(values, name: str, integer: bool = False) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers")
    return [_number(v, f"{name}[{i}]", integer) for i, v in enumerate(values)]


def _pde_data(mesh: Mesh1D, spec: dict, defaults: dict) -> PdeData:
    """Data from the keys a, b, f (each a number or a flat list of numbers)
    and g (a number) of a JSON object, with `defaults` for missing keys."""
    fields = {}
    for key, default in defaults.items():
        value = spec.get(key, default)
        fields[key] = (_numbers(value, key) if key != "g" and isinstance(value, list)
                       else _number(value, key))
    return PdeData.from_spec(mesh, **fields)


#: The keys besides "kind" that each nonlinearity kind reads.
_NONLINEARITY_KEYS = {"cubic": set(), "tanh_shifted": set(), "polynomial": {"coeffs", "q"},
                      "exp": {"q"}, "exponential": {"q"}}


def _nonlinearity_from_spec(spec) -> Nonlinearity:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("nonlinearity must be an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _NONLINEARITY_KEYS:
        raise ConfigError(f"unknown nonlinearity kind {kind!r}")
    extra = set(spec) - {"kind"} - _NONLINEARITY_KEYS[kind]
    if extra:
        raise ConfigError(f"unknown keys for nonlinearity {kind!r}: {', '.join(sorted(extra))}")
    if kind == "cubic":
        return Nonlinearity.cubic()
    if kind == "polynomial":
        if "coeffs" not in spec:
            raise ConfigError("polynomial nonlinearity needs 'coeffs'")
        q = spec.get("q")
        return Nonlinearity.polynomial(_numbers(spec["coeffs"], "coeffs"),
                                       None if q is None else _number(q, "q"))
    if kind == "tanh_shifted":
        return Nonlinearity.tanh_shifted()
    return Nonlinearity.exponential(_number(spec.get("q", 6.0), "q"))


# -- subcommands -----------------------------------------------------------------


def _cmd_kappa(args) -> int:
    if args.max_n < 1:
        raise ConfigError("--max-n must be >= 1")
    seq = schroeder_hipparchus_sequence(args.max_n)
    header = "n,kappa_n,ratio_to_bound"
    if args.check_asymptotic:
        header += ",asymptotic_ratio"
    lines = [header]
    log_c = math.log(C_KAPPA)
    for n, value in enumerate(seq, start=1):
        ratio = math.exp(math.log(value) - (n - 1) * log_c)
        row = f"{n},{value},{_fmt(ratio)}"
        if args.check_asymptotic:
            row += f",{_fmt(math.exp(math.log(value) - kappa_asymptotic_log(n)))}"
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_envelope(args) -> int:
    cfg = _read_json_config(
        args.config,
        allowed={"s", "alpha", "sigma", "digamma", "orders"},
        required={"s", "alpha", "sigma", "digamma"},
    )
    s, alpha, sigma, digamma = (_number(cfg[k], k) for k in ("s", "alpha", "sigma", "digamma"))
    orders = _numbers(cfg.get("orders", []), "orders", integer=True)
    out = implicit_envelope(StabilityConstant(alpha), GevreyEnvelope(s, sigma, digamma))
    lines = ["key,value", f"scale,{_fmt(out.scale)}", f"rate,{_fmt(out.rate)}"]
    if out.s == 1.0:
        lines.append(f"radius,{_fmt(convergence_radius(out))}")
    else:
        lines.append("radius,")
    for n in orders:
        lines.append(f"bound_n={n},{_fmt(out.bound(n))}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_solve(args) -> int:
    cfg = _read_json_config(
        args.config,
        allowed={"mesh_n", "bc", "a", "b", "f", "g", "nonlinearity", "tol", "seed"},
        required={"nonlinearity"},
    )
    mesh = Mesh1D.uniform(_number(cfg.get("mesh_n", 256), "mesh_n", integer=True),
                          right_bc=cfg.get("bc", "dirichlet"))
    nl = _nonlinearity_from_spec(cfg["nonlinearity"])
    data = _pde_data(mesh, cfg, {"a": 1.0, "b": 0.0, "f": 0.0, "g": 0.0})
    _number(cfg.get("seed", 0), "seed", integer=True)  # accepted; solve draws nothing
    tol = _number(cfg.get("tol", 1e-12), "tol", nonnegative=True)
    u, bound, residual_norm = newton_solve(mesh, data, nl, tol=tol, return_check=True)

    # _fmt's bytes in one % over the nodes and values interleaved.  At
    # mesh_n = 2**18 the tracemalloc peak of this formatting is 32.2 MiB,
    # against 38.1 MiB for a str % per row joined.  The template is bytes:
    # with a str one, ru_maxrss rose by 12-13 MiB from the 200th to the
    # 1000th in-process run at mesh 4096 (CPython 3.11), with bytes by
    # 0.3 MiB, as with a str % per row.
    pairs = np.column_stack((mesh.nodes, mesh.expand(u))).ravel()
    text = (b"x,u\n" + b"%.12g,%.12g\n" * len(mesh.nodes)) % tuple(pairs.tolist())
    _emit(text.decode(), args.output)

    if args.report is not None:
        constants = estimate_constants(mesh, data, nl, u, u_norm=bound.lhs,
                                       residual_norm=residual_norm)
        report = {
            "residual_norm": constants.residual_norm,
            "constants": constants.as_dict(),
            "bound_checks": {
                "solution_bound": {"lhs": bound.lhs, "rhs": bound.rhs, "ok": bound.ok},
                "monotonicity": asdict(monotonicity_certificate(mesh, data, nl)),
            },
        }
        _write_text(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


#: Scalar `derivatives` problems: (oracle factory, default --at, FD steps).
_SCALAR_PROBLEMS = {
    "scalar-quadratic": (scalar_quadratic_oracle, 3.0, [0.1, 0.05, 0.025, 0.0125]),
    "scalar-cubic": (scalar_cubic_oracle, 0.0, [0.08, 0.04, 0.02, 0.01]),
}


def _derivative_problem(args, values):
    """(oracle, base, directions, FD steps) of the named problem, with the
    directions read from `values` (None for the default direction)."""
    if args.problem in _SCALAR_PROBLEMS:
        if args.mesh_n is not None:
            raise ConfigError("--mesh-n applies only to the pde1d problem")
        make_oracle, at, steps = _SCALAR_PROBLEMS[args.problem]
        if args.at is not None:
            at = _number(args.at, "--at")
        directions = [np.array([v]) for v in _numbers(values or [1.0], "directions")]
        return make_oracle(), np.array([at]), directions, steps
    if args.at is not None:
        raise ConfigError("--at applies only to the scalar problems")
    mesh = Mesh1D.uniform(256 if args.mesh_n is None else args.mesh_n)
    oracle = PdeOracle(mesh, Nonlinearity.cubic())
    base = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    directions = []
    for spec in values or [{"f": 1.0}]:
        if not isinstance(spec, dict) or set(spec) - {"a", "b", "f", "g"}:
            raise ConfigError("pde1d directions must be objects with keys a, b, f, g")
        direction = _pde_data(mesh, spec, dict.fromkeys("abfg", 0.0))
        if direction.g != 0.0:  # the mesh's right end is Dirichlet, where g is dropped
            raise ConfigError("Neumann value must vanish for a Dirichlet right end")
        directions.append(direction)
    steps = [0.1, 0.05, 0.025]
    return oracle, base, directions, steps


def _cmd_derivatives(args) -> int:
    if args.order < 1:
        raise ConfigError("--order must be >= 1")
    values = None
    if args.directions is not None:
        try:
            with open(args.directions) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read directions: {exc}") from exc
        if not isinstance(values, list) or not values:
            raise ConfigError("directions file must hold a nonempty JSON list")

    oracle, base, directions, steps = _derivative_problem(args, values)
    table = derivative_table(oracle, base, directions, args.order)

    fd = {}
    if args.fd_check:
        solution_map = lambda ds: solve_residual_stack(oracle, ds, oracle.zero_state(), 1e-13)
        fd = finite_difference_table(
            solution_map, base, directions,
            [alpha for alpha, _ in table.items() if 1 <= alpha.order() <= 4],
            steps, norm=oracle.state_norm, block_points=oracle.stack_points)
    # _fmt's bytes in one % over the rows' formats and values
    formats, values = [], []
    for alpha, value in table.items():
        values += ("+".join(str(k) for k, e in alpha.entries for _ in range(e)) or "base",
                   oracle.state_norm(value))
        if alpha in fd:
            est, ind = fd[alpha]
            values += (oracle.state_norm(est), ind)
            formats.append("%s,%.12g,%.12g,%.12g\n")
        else:
            formats.append("%s,%.12g,,\n")
    _emit("key,norm,fd_norm,fd_error_indicator\n" + "".join(formats) % tuple(values),
          args.output)
    return 0


def _cmd_verify_bounds(args) -> int:
    cfg = _read_json_config(
        args.config,
        allowed={"mesh_n", "p", "c", "vartheta", "nonlinearity", "max_order",
                 "y_samples", "seed", "tol"},
        required={"mesh_n", "p", "max_order", "y_samples"},
    )
    # 0 is the seed's default; the other integer keys are required
    ints = {k: _number(cfg.get(k, 0), k, integer=True)
            for k in ("mesh_n", "p", "max_order", "y_samples", "seed")}
    mesh = Mesh1D.uniform(ints["mesh_n"])
    dmap = DomainMap1D(ints["p"], _number(cfg.get("c", 0.5), "c"),
                       _number(cfg.get("vartheta", 2.0), "vartheta"))
    nl = _nonlinearity_from_spec(cfg.get("nonlinearity", {"kind": "cubic"}))
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    rng = np.random.default_rng(ints["seed"])
    ys = [rng.uniform(-0.5, 0.5, dmap.p) for _ in range(ints["y_samples"])]
    report = verify_derivative_bounds(dmap, hat, mesh, nl, ys,
                             max_order=ints["max_order"],
                             tol=_number(cfg.get("tol", 1e-12), "tol", nonnegative=True))

    # _fmt's bytes in one % over the rows' values; the bound is exp(log_bound),
    # inf past the float range
    values = tuple(value for row in report.rows
                   for value in (row.alpha.label(), row.y_index, row.measured,
                                 exp_or_inf(row.log_bound), row.ratio))
    _emit("alpha,y_id,measured_norm,bound,ratio\n"
          + ("%s,%d,%.12g,%.12g,%.12g\n" * len(report.rows)) % values, args.output)
    if args.report is not None:
        payload = {
            "passed": report.passed,
            "constants": {k: v for k, v in report.constants.items() if k != "per_point"},
            "envelope": {
                "s": report.envelope.base.s,
                "scale": report.envelope.base.scale,
                "rate": report.envelope.base.rate,
                "weights": list(report.envelope.weights),
            },
        }
        _write_text(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if report.passed else 3


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(out=print)
    return 0 if ok else 2


# -- entry point ------------------------------------------------------------------


@functools.cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gevrey-kit",
        description="Derivative-bound calculus for implicitly defined solution maps.",
    )
    parser.add_argument("--version", action="version",
                        version=f"gevrey-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kappa = sub.add_parser("kappa", help="little Schroeder numbers as CSV")
    p_kappa.add_argument("--max-n", type=int, default=20)
    p_kappa.add_argument("--check-asymptotic", action="store_true",
                         help="append the classical-asymptotic ratio column")
    p_kappa.add_argument("--output", default=None)
    p_kappa.set_defaults(handler=_cmd_kappa)

    p_env = sub.add_parser("envelope", help="implicit-map envelope constants")
    p_env.add_argument("--config", required=True,
                       help="JSON object {s, alpha, sigma, digamma, orders?}")
    p_env.add_argument("--output", default=None)
    p_env.set_defaults(handler=_cmd_envelope)

    p_solve = sub.add_parser("solve", help="one semilinear solve")
    p_solve.add_argument("--config", required=True,
                         help="JSON {mesh_n, bc?, a?, b?, f?, g?, nonlinearity, tol?, seed?}")
    p_solve.add_argument("--output", default=None, help="CSV of nodal values")
    p_solve.add_argument("--report", default=None, help="JSON report path")
    p_solve.set_defaults(handler=_cmd_solve)

    p_der = sub.add_parser("derivatives", help="solution-derivative table")
    p_der.add_argument("--problem", required=True,
                       choices=[*_SCALAR_PROBLEMS, "pde1d"])
    p_der.add_argument("--order", type=int, required=True)
    p_der.add_argument("--directions", default=None,
                       help="JSON list of directions (numbers, or {a,b,f,g} objects)")
    p_der.add_argument("--fd-check", action="store_true")
    p_der.add_argument("--at", type=float, default=None,
                       help="scalar base point (defaults per problem)")
    p_der.add_argument("--mesh-n", type=int, default=None,
                       help="pde1d mesh elements (default 256)")
    p_der.add_argument("--output", default=None)
    p_der.set_defaults(handler=_cmd_derivatives)

    p_ver = sub.add_parser("verify-bounds", help="parametric bound verification")
    p_ver.add_argument("--config", required=True,
                       help="JSON {mesh_n, p, c?, vartheta?, nonlinearity?, "
                            "max_order, y_samples, seed?, tol?}")
    p_ver.add_argument("--output", default=None)
    p_ver.add_argument("--report", default=None)
    p_ver.set_defaults(handler=_cmd_verify_bounds)

    p_self = sub.add_parser("selftest", help="run the verification suite")
    p_self.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_directories(args)
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, LinearizationError, SolutionBoundError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
