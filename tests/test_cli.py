"""Command line front end: outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gevrey_kit.cli as cli
from gevrey_kit import pde1d
from gevrey_kit.combinatorics import MultiIndex
from gevrey_kit.envelopes import GevreyEnvelope, ParametricEnvelope
from gevrey_kit.parametric import DerivativeBoundReport, DerivativeBoundRow


def run_cli(args):
    return cli.main(args)


def case_id(override: dict) -> str:
    return "-".join(f"{key}={type(value).__name__}" for key, value in override.items())


#: Nonlinearity specs with a key that their kind does not read.
UNREAD_NONLINEARITY_KEYS = [
    {"kind": "cubic", "coeffs": [5, 7], "q": 1.5},
    {"kind": "cubic", "q": 4},
    {"kind": "tanh_shifted", "coeffs": [1.0]},
    {"kind": "polynomial", "coeffs": [0.0, 1.0], "degree": 2},
    {"kind": "exp", "coeffs": [1.0]},
]


def nonlinearity_id(spec: dict) -> str:
    return "-".join(sorted(spec["kind"] if key == "kind" else key for key in spec))


def assert_violated_solution_bound_exits_2(monkeypatch, capsys, tmp_path, argv):
    """With every a-priori solution bound check failing, the run is a
    numerical failure: exit 2, one stderr line, and nothing written."""
    monkeypatch.setattr(pde1d, "solution_bound_check",
                        lambda *args: pde1d.BoundCheck(2.0, 1.0, False))
    before = set(tmp_path.iterdir())
    assert run_cli(argv + ["--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: solution bound violated: ||u|| = 2 > 1"]
    assert set(tmp_path.iterdir()) == before


class TestKappa:
    def test_csv_values(self, tmp_path):
        out = tmp_path / "kappa.csv"
        assert run_cli(["kappa", "--max-n", "10", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,kappa_n,ratio_to_bound"
        last = lines[-1].split(",")
        assert last[0] == "10" and last[1] == "103049"
        assert 0.0 < float(last[2]) <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["kappa", "--max-n", "50", "--check-asymptotic", "--output", str(out1)])
        run_cli(["kappa", "--max-n", "50", "--check-asymptotic", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_asymptotic_column(self, tmp_path):
        out = tmp_path / "kappa.csv"
        run_cli(["kappa", "--max-n", "500", "--check-asymptotic", "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0].endswith(",asymptotic_ratio")
        ratio = float(lines[-1].split(",")[3])
        assert 0.9 <= ratio <= 1.1

    def test_bad_argument(self):
        assert run_cli(["kappa", "--max-n", "0"]) == 1


class TestEnvelope:
    def test_identity_point_radius(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(
            {"s": 1.0, "alpha": 1.0, "sigma": 1.0, "digamma": 1.0, "orders": [1, 5]}
        ))
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", "--config", str(cfg), "--output", str(out)]) == 0
        rows = dict(line.split(",") for line in out.read_text().strip().splitlines()[1:])
        assert math.isclose(float(rows["radius"]), 0.171573, abs_tol=1e-6)
        assert math.isclose(float(rows["scale"]), 1.0 / (3.0 + math.sqrt(8.0)), rel_tol=1e-9)
        assert "bound_n=5" in rows

    def test_non_analytic_has_empty_radius(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"s": 1.5, "alpha": 1.0, "sigma": 1.0, "digamma": 1.0}))
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", "--config", str(cfg), "--output", str(out)]) == 0
        rows = dict(line.split(",") for line in out.read_text().strip().splitlines()[1:])
        assert rows["radius"] == ""

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(
            {"s": 1.0, "alpha": 1.0, "sigma": 1.0, "digamma": 1.0, "extra": 1}
        ))
        assert run_cli(["envelope", "--config", str(cfg)]) == 1

    def test_missing_key_rejected(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"s": 1.0}))
        assert run_cli(["envelope", "--config", str(cfg)]) == 1

    def test_invalid_constants_rejected(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({"s": 1.0, "alpha": 0.5, "sigma": 1.0, "digamma": 1.0}))
        assert run_cli(["envelope", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("override", [
        {"s": True}, {"alpha": "1"}, {"sigma": None}, {"digamma": [1.0]},
        {"orders": 5}, {"orders": [1.5]}, {"orders": [True]}, {"orders": ["2"]},
    ], ids=case_id)
    def test_non_numeric_values_rejected(self, tmp_path, capsys, override):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(
            dict({"s": 1.0, "alpha": 1.0, "sigma": 1.0, "digamma": 1.0}, **override)))
        out = tmp_path / "env.csv"
        assert run_cli(["envelope", "--config", str(cfg), "--output", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_neumann_linear_exact(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": 32, "bc": "neumann", "a": 1.0, "b": 0.0, "f": 0.0, "g": 1.0,
            "nonlinearity": {"kind": "cubic"},
        }))
        out = tmp_path / "u.csv"
        rep = tmp_path / "report.json"
        code = run_cli(["solve", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 34  # header + 33 nodes
        for line in lines[1:]:
            x, u = (float(v) for v in line.split(","))
            assert abs(u - x) < 1e-10  # exact solution of the flux benchmark
        report = json.loads(rep.read_text())
        assert report["residual_norm"] <= 1e-12
        assert report["bound_checks"]["solution_bound"]["ok"]
        assert report["bound_checks"]["monotonicity"]["ok"]
        assert report["constants"]["alpha"] >= 1.0

    def test_tanh_shifted_spec(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 32, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "tanh_shifted"}}))
        out, rep = tmp_path / "u.csv", tmp_path / "report.json"
        code = run_cli(["solve", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 34
        assert json.loads(rep.read_text())["residual_norm"] <= 1e-12

    def test_cubic_benchmark(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": 64, "a": 1.0, "b": 1.0, "f": 1.0,
            "nonlinearity": {"kind": "cubic"},
        }))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0
        values = [float(line.split(",")[1])
                  for line in out.read_text().strip().splitlines()[1:]]
        assert values[0] == 0.0 and values[-1] == 0.0
        assert max(values) == pytest.approx(0.1248, abs=2e-3)

    @pytest.mark.parametrize("mesh_n,f", [(256, 1e5), (1024, 1e4)])
    def test_residual_round_off_floor_converges(self, tmp_path, mesh_n, f):
        # the residual norm stalls near 1.2e-12 > tol with a round-off Newton step
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": mesh_n, "a": 1.0, "b": 1.0, "f": f,
            "nonlinearity": {"kind": "cubic"},
        }))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0

    def test_report_is_deterministic(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": 1500, "a": 1.0, "b": 1.0, "f": 1.0,
            "nonlinearity": {"kind": "cubic"},
        }))
        reports = []
        for run in range(2):
            rep = tmp_path / f"report{run}.json"
            assert run_cli(["solve", "--config", str(cfg), "--output",
                            str(tmp_path / f"u{run}.csv"), "--report", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]

    def test_seed_has_no_effect(self, tmp_path):
        reports = []
        for seed in (0, 12345):
            cfg = tmp_path / f"solve{seed}.json"
            cfg.write_text(json.dumps({
                "mesh_n": 64, "a": 1.0, "b": 1.0, "f": 1.0,
                "nonlinearity": {"kind": "cubic"}, "seed": seed,
            }))
            rep = tmp_path / f"report{seed}.json"
            assert run_cli(["solve", "--config", str(cfg), "--output",
                            str(tmp_path / f"u{seed}.csv"), "--report", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]

    def test_report_monotonicity_certificate(self, tmp_path):
        cfg = tmp_path / "solve.json"
        a = [0.5] * 48 + [2.0] * 48  # 32 elements, 3 Gauss points each
        cfg.write_text(json.dumps({"mesh_n": 32, "bc": "neumann", "a": a, "b": 1.0,
                                   "f": 1.0, "g": 0.5, "nonlinearity": {"kind": "cubic"}}))
        rep = tmp_path / "report.json"
        assert run_cli(["solve", "--config", str(cfg), "--report", str(rep)]) == 0
        block = json.loads(rep.read_text())["bound_checks"]["monotonicity"]
        assert set(block) == {"min_a", "min_b", "nonlinearity_monotone", "c_pf",
                              "threshold", "ok"}
        assert block["min_a"] == 0.5 and block["min_b"] == 1.0
        assert block["nonlinearity_monotone"] is True and block["ok"] is True
        assert block["threshold"] == 0.5 / block["c_pf"] ** 2

    def test_exponential_nonlinearity_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": 16, "f": 1.0, "nonlinearity": {"kind": "exp"},
        }))
        assert run_cli(["solve", "--config", str(cfg)]) == 1
        assert "growth" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "mesh_n": 16, "nonlinearity": {"kind": "cubic"}, "bogus": 1,
        }))
        assert run_cli(["solve", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("override", [
        # a field list holds one value per Gauss point: 48 at mesh 16
        {"a": True}, {"b": "1"}, {"f": None}, {"f": [1.0] * 47 + [True]},
        {"a": [1.0] * 47 + ["2"]}, {"a": [[1.0] * 3] * 16}, {"bc": "neumann", "g": True},
        {"g": [1.0]}, {"f": math.inf}, {"a": [1.0] * 47 + [math.nan]},
        {"mesh_n": 16.5}, {"mesh_n": True}, {"tol": "1e-12"}, {"seed": 1.5},
        {"nonlinearity": {"kind": "polynomial", "coeffs": [1.0, 0.0, True]}},
        {"nonlinearity": {"kind": "polynomial", "coeffs": "1"}},
        {"nonlinearity": {"kind": "polynomial", "coeffs": [0.0, 1.0], "q": "4"}},
    ], ids=case_id)
    def test_non_numeric_values_rejected(self, tmp_path, capsys, override):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps(dict({
            "mesh_n": 16, "a": 1.0, "b": 1.0, "f": 1.0, "nonlinearity": {"kind": "cubic"},
        }, **override)))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", UNREAD_NONLINEARITY_KEYS, ids=nonlinearity_id)
    def test_unread_nonlinearity_key_rejected(self, tmp_path, capsys, spec):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "a": 1.0, "b": 1.0, "f": 1.0,
                                   "nonlinearity": spec}))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "unknown keys for nonlinearity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read config"), ("{", "cannot read config"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["missing", "not-json", "not-an-object"])
    def test_unusable_config_file_rejected(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "solve.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ("cubic", "nonlinearity must be an object with a 'kind'"),
        ({"coeffs": [1.0]}, "nonlinearity must be an object with a 'kind'"),
        ({"kind": "quintic"}, "unknown nonlinearity kind 'quintic'"),
        ({"kind": "polynomial"}, "polynomial nonlinearity needs 'coeffs'"),
    ], ids=["string", "no-kind", "unknown-kind", "polynomial-without-coeffs"])
    def test_unusable_nonlinearity_rejected(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "a": 1.0, "b": 1.0, "f": 1.0,
                                   "nonlinearity": spec}))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_reaction_weight_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 64, "a": 1.0, "b": -1e-15, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}}))
        out, rep = tmp_path / "u.csv", tmp_path / "report.json"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)]) == 1
        assert "reaction weight must be nonnegative" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_violated_solution_bound_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}}))
        assert_violated_solution_bound_exits_2(monkeypatch, capsys, tmp_path,
                                               ["solve", "--config", str(cfg)])

    def test_report_does_each_piece_of_work_once(self, tmp_path, monkeypatch):
        # at the benchmark's mesh, alpha_measured's bisection stops after at
        # most 40 factorizations, and the report reads the bound check of the
        # solve and the residual norm of the constants, which take ||u|| from
        # that check and the residual norm from the Newton solve's last
        # evaluation, so the residual is assembled only in Newton rounds
        calls = dict.fromkeys(["search_dpttrf", "solution_bound_check", "data_norm",
                               "dual_norm", "h1_norm", "newton_residual", "other_residual"], 0)
        searching, solving = [], []

        def counting(name, kernel):
            def counted(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return counted

        def search(*args):
            searching.append(True)
            try:
                return eigenvalue(*args)
            finally:
                searching.pop()

        def factor(*args, **kwargs):
            calls["search_dpttrf"] += bool(searching)
            return dpttrf(*args, **kwargs)

        def solve(*args, **kwargs):
            solving.append(True)
            try:
                return solve_residual(*args, **kwargs)
            finally:
                solving.pop()

        def residual(*args):
            calls["newton_residual" if solving else "other_residual"] += 1
            return assemble(*args)

        eigenvalue, dpttrf = pde1d._smallest_generalized_eigenvalue, pde1d.dpttrf
        solve_residual, assemble = pde1d.solve_residual, pde1d._residual
        monkeypatch.setattr(pde1d, "_smallest_generalized_eigenvalue", search)
        monkeypatch.setattr(pde1d, "dpttrf", factor)
        monkeypatch.setattr(pde1d, "solve_residual", solve)
        monkeypatch.setattr(pde1d, "_residual", residual)
        for name in ("solution_bound_check", "data_norm"):
            monkeypatch.setattr(pde1d, name, counting(name, getattr(pde1d, name)))
        for name in ("dual_norm", "h1_norm"):
            monkeypatch.setattr(pde1d.Mesh1D, name, counting(name, getattr(pde1d.Mesh1D, name)))
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 4096, "a": 1.0, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}}))
        rep = tmp_path / "report.json"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(tmp_path / "u.csv"),
                        "--report", str(rep)]) == 0
        assert 0 < calls["search_dpttrf"] <= 40
        assert calls["solution_bound_check"] == calls["data_norm"] == calls["h1_norm"] == 1
        assert calls["dual_norm"] == 2  # the two of data_norm
        assert calls["newton_residual"] > 0 and calls["other_residual"] == 0
        report = json.loads(rep.read_text())
        assert report["bound_checks"]["solution_bound"]["ok"]
        assert report["constants"]["alpha_measured"] <= report["constants"]["alpha"]

    def test_csv_is_the_per_value_format(self, tmp_path, monkeypatch):
        u = np.array([-0.0, 1e-300, 1e300, -1e300, -1e-300, -2.5, 1.0 / 3.0, 5e-324, -0.1])
        monkeypatch.setattr(cli, "newton_solve", lambda *args, **kwargs: (u, None, None))
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 10, "nonlinearity": {"kind": "cubic"}}))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0
        nodes = np.linspace(0.0, 1.0, 11)
        full = np.concatenate([[0.0], u, [0.0]])
        want = "x,u\n" + "".join(f"{cli._fmt(x)},{cli._fmt(v)}\n" for x, v in zip(nodes, full))
        assert out.read_text() == want
        assert ",-0\n" in want and ",1e-300\n" in want and ",-1e+300\n" in want

    @pytest.mark.parametrize("tol", [-1, -1e-12])
    def test_negative_tol_rejected(self, tmp_path, capsys, tol):
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "a": 1.0, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}, "tol": tol}))
        out = tmp_path / "u.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestDerivatives:
    def test_scalar_cubic_with_fd(self, tmp_path):
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "scalar-cubic", "--order", "3",
                        "--fd-check", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "key,norm,fd_norm,fd_error_indicator"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert set(rows) == {"base", "1", "1+1", "1+1+1"}
        assert float(rows["1"][0]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows["1+1+1"][0]) == pytest.approx(6.0, abs=1e-8)
        assert float(rows["1+1+1"][1]) == pytest.approx(6.0, rel=1e-4)
        assert float(rows["1+1+1"][2]) < 1e-3

    def test_directions_file(self, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([2.0]))
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "scalar-quadratic", "--order", "2",
                        "--directions", str(dirs), "--output", str(out)])
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1]
                for line in out.read_text().strip().splitlines()[1:]}
        # S(d) = d**2 at d = 3 along h = 2: DS = 12, D2S = 8
        assert float(rows["1"]) == pytest.approx(12.0, abs=1e-9)
        assert float(rows["1+1"]) == pytest.approx(8.0, abs=1e-9)

    @pytest.mark.parametrize("problem", ["scalar-cubic", "scalar-quadratic"])
    @pytest.mark.parametrize("entry", [{"a": 1}, None, True])
    def test_non_numeric_scalar_direction_rejected(self, tmp_path, capsys, problem, entry):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([entry]))
        code = run_cli(["derivatives", "--problem", problem, "--order", "2",
                        "--directions", str(dirs)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["scalar-cubic", "scalar-quadratic"])
    @pytest.mark.parametrize("at", ["nan", "inf", "-inf"])
    def test_non_finite_base_point_rejected(self, capsys, problem, at):
        # the = form, so that argparse does not read -inf as an option
        code = run_cli(["derivatives", "--problem", problem, "--order", "2", f"--at={at}"])
        assert code == 1
        assert "--at must be a finite number" in capsys.readouterr().err

    def test_base_point_rejected_for_pde1d(self, tmp_path, capsys):
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "1", "--mesh-n", "8",
                        "--at", "2.0", "--output", str(out)])
        assert code == 1
        assert "--at applies only to the scalar problems" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["scalar-cubic", "scalar-quadratic"])
    def test_mesh_size_rejected_for_scalar_problems(self, tmp_path, capsys, problem):
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", problem, "--order", "1", "--mesh-n", "7",
                        "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: --mesh-n applies only to the pde1d problem"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--at", "-inf"], ["--order", "two"]],
                             ids=["at-read-as-option", "order-not-an-integer"])
    def test_unusable_command_line_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["derivatives", "--problem", "scalar-cubic", "--order", "2"] + argv)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"a": True}, {"b": "0.1"}, {"f": None}, {"f": [1.0] * 23 + [False]}, {"g": [1.0]},
    ], ids=case_id)
    def test_non_numeric_pde_direction_rejected(self, tmp_path, capsys, entry):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"f": 1.0}, entry]))
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "2",
                        "--mesh-n", "8", "--directions", str(dirs)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_pde_direction_with_zero_neumann_value_accepted(self, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"f": 1.0, "g": 0.0}]))
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "2", "--mesh-n", "16",
                        "--directions", str(dirs), "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read directions"), ("[{", "cannot read directions"),
        ("[]", "directions file must hold a nonempty JSON list"),
        ('{"f": 1.0}', "directions file must hold a nonempty JSON list"),
        ("[1.0]", "pde1d directions must be objects with keys a, b, f, g"),
        ('[{"f": 1.0}, {"h": 1.0}]', "pde1d directions must be objects with keys a, b, f, g"),
        # the pde1d problem's right end is Dirichlet, where g would be dropped
        ('[{"f": 1.0}, {"g": 1.0}]', "Neumann value must vanish for a Dirichlet right end"),
    ], ids=["missing", "not-json", "empty", "not-a-list", "number", "unknown-key",
            "neumann-value"])
    def test_unusable_directions_rejected(self, tmp_path, capsys, text, message):
        dirs = tmp_path / "dirs.json"
        if text is not None:
            dirs.write_text(text)
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "2", "--mesh-n", "8",
                        "--directions", str(dirs), "--output", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_pde_problem_smoke(self, tmp_path):
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "2",
                        "--mesh-n", "24", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header, base, order 1, order 2

    def test_pde_directional_row_order(self, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"f": 1.0}, {"a": 0.2, "b": 0.1}]))
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "3",
                        "--mesh-n", "24", "--directions", str(dirs), "--output", str(out)])
        assert code == 0
        labels = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
        assert labels == ["base", "1", "2", "1+1", "1+2", "2+2",
                          "1+1+1", "1+1+2", "1+2+2", "2+2+2"]

    def test_fd_check_solves_each_stencil_point_once(self, tmp_path, monkeypatch):
        calls = []  # the points of each stacked solve
        solve = cli.solve_residual_stack

        def counting_solve(oracle, ds, *args, **kwargs):
            calls.append(len(ds.g))
            return solve(oracle, ds, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_residual_stack", counting_solve)
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"f": 1.0}, {"a": 0.2, "b": 0.1}]))
        out = tmp_path / "deriv.csv"
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "6",
                        "--mesh-n", "24", "--directions", str(dirs), "--fd-check",
                        "--output", str(out)])
        assert code == 0
        # 40 nonzero stencil points c per step, three halving steps, and the
        # base point, in one block (a stack at mesh 24 holds 284 points); the
        # 12 even points c of the steps 0.05 and 0.025 are the points c / 2 of
        # the step before (2 * 0.05 is 0.1 in floating point), so
        # 40 + 28 + 28 + 1 are distinct
        assert calls == [97]
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert sum(1 for r in rows if r[2]) == 14

    def test_fd_check_blocks_fit_the_stack(self, tmp_path, monkeypatch):
        # with room for 10 points in a stack, the 97 distinct points reach
        # the solver in blocks of at most 10 rows, and the table's bytes do
        # not depend on the blocks
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"f": 1.0}, {"a": 0.2, "b": 0.1}]))
        argv = ["derivatives", "--problem", "pde1d", "--order", "4", "--mesh-n", "24",
                "--directions", str(dirs), "--fd-check", "--output"]
        assert run_cli(argv + [str(tmp_path / "one-block.csv")]) == 0
        blocks = []
        solve = cli.solve_residual_stack

        def recording_solve(oracle, ds, *args, **kwargs):
            blocks.append((len(ds.g), oracle.stack_points))
            return solve(oracle, ds, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_residual_stack", recording_solve)
        monkeypatch.setattr(pde1d, "_STACK_BYTES", 10 * 24 * 3 * 8)  # 10 Gauss-point fields
        assert run_cli(argv + [str(tmp_path / "blocks.csv")]) == 0
        assert blocks == [(10, 10)] * 9 + [(7, 10)]
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one-block.csv").read_bytes()

    @pytest.mark.parametrize("problem, distinct", [("scalar-cubic", 119),
                                                   ("scalar-quadratic", 129)])
    def test_fd_check_solves_each_distinct_scalar_point_once(self, tmp_path, monkeypatch,
                                                             problem, distinct):
        # the scalar data is one-dimensional, so the three directions are
        # collinear: of the 441 points the stencils build (one per set of
        # offsets), `distinct` are bitwise distinct, and each is solved once
        solved = []
        solve = cli.solve_residual_stack

        def recording_solve(oracle, ds, *args, **kwargs):
            solved.extend(row.tobytes() for row in ds)
            return solve(oracle, ds, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_residual_stack", recording_solve)
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([1.0, 0.5, -0.25]))
        assert run_cli(["derivatives", "--problem", problem, "--order", "8",
                        "--directions", str(dirs), "--fd-check",
                        "--output", str(tmp_path / "deriv.csv")]) == 0
        assert len(solved) == len(set(solved)) == distinct

    def test_csv_is_the_per_value_format(self, tmp_path, monkeypatch):
        # a key's norm, and its FD columns where the check has the key
        values = [-0.0, 5e-324, 1e-310, 1e300, -1e300, math.nan, 1.0 / 3.0]
        fd_values = [(math.inf, -0.0), (5e-324, math.nan), (-1e300, 1e300)]
        keys = [MultiIndex.make([])] + [MultiIndex.make({1: n}) for n in range(1, 6)]
        keys.append(MultiIndex.make({1: 2, 2: 1}))
        fd = dict(zip(keys[1::2], fd_values))
        table = type("Table", (), {"items": lambda self: zip(keys, values)})()
        oracle = type("Oracle", (), {"state_norm": staticmethod(lambda v: v),
                                     "stack_points": 1})()
        monkeypatch.setattr(cli, "_derivative_problem",
                            lambda args, values: (oracle, None, [None, None], [0.1]))
        monkeypatch.setattr(cli, "derivative_table", lambda *args: table)
        monkeypatch.setattr(cli, "finite_difference_table", lambda *args, **kwargs: fd)
        out = tmp_path / "deriv.csv"
        assert run_cli(["derivatives", "--problem", "scalar-cubic", "--order", "3",
                        "--fd-check", "--output", str(out)]) == 0
        want = ["key,norm,fd_norm,fd_error_indicator\n"]
        for alpha, value in zip(keys, values):
            label = "+".join(str(k) for k, e in alpha.entries for _ in range(e)) or "base"
            est, ind = (cli._fmt(x) for x in fd[alpha]) if alpha in fd else ("", "")
            want.append(f"{label},{cli._fmt(value)},{est},{ind}\n")
        assert out.read_text() == "".join(want)
        assert "base,-0,,\n" in want and "1,4.94065645841e-324,inf,-0\n" in want
        assert "1+1+1+1+1,nan,-1e+300,1e+300\n" in want and "1+1,1e-310,,\n" in want

    def test_invalid_order(self):
        assert run_cli(["derivatives", "--problem", "scalar-cubic", "--order", "0"]) == 1

    def test_indefinite_linearization_exit_code(self, tmp_path, capsys):
        # a = 1 - 30 t loses ellipticity at the finite-difference points
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"a": -30}]))
        code = run_cli(["derivatives", "--problem", "pde1d", "--order", "2", "--mesh-n", "32",
                        "--directions", str(dirs), "--fd-check",
                        "--output", str(tmp_path / "deriv.csv")])
        assert code == 2
        assert "not positive definite" in capsys.readouterr().err


class TestVerifyBounds:
    def config(self, tmp_path, **overrides):
        cfg = {
            "mesh_n": 32, "p": 2, "max_order": 2, "y_samples": 2, "seed": 7,
            "nonlinearity": {"kind": "cubic"},
        }
        cfg.update(overrides)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_pass_run(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "bounds.csv"
        rep = tmp_path / "bounds.json"
        code = run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,y_id,measured_norm,bound,ratio"
        assert len(lines) == 1 + 2 * 6  # two samples, six multi-indices
        for line in lines[1:]:
            assert float(line.split(",")[4]) <= 1.0
        report = json.loads(rep.read_text())
        assert report["passed"] is True
        assert report["envelope"]["rate"] > 1.0

    def test_no_eigenvalue_bisection(self, tmp_path, monkeypatch):
        # the report drops the per-point constants, so no point measures
        # alpha_measured
        def refuse(*args):
            raise AssertionError("verify-bounds ran the eigenvalue bisection")
        monkeypatch.setattr(pde1d, "_smallest_generalized_eigenvalue", refuse)
        assert run_cli(["verify-bounds", "--config", str(self.config(tmp_path)),
                        "--output", str(tmp_path / "bounds.csv"),
                        "--report", str(tmp_path / "bounds.json")]) == 0

    @pytest.mark.parametrize("spec,max_order,n_alphas", [
        ({"kind": "tanh_shifted"}, 2, 6),
        ({"kind": "polynomial", "coeffs": []}, 3, 10),
        ({"kind": "polynomial", "coeffs": [0.0]}, 3, 10),
    ], ids=["tanh_shifted", "zero-empty", "zero"])
    def test_pass_run_of_other_nonlinearities(self, tmp_path, spec, max_order, n_alphas):
        cfg = self.config(tmp_path, nonlinearity=spec, max_order=max_order)
        out, rep = tmp_path / "bounds.csv", tmp_path / "bounds.json"
        code = run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 2 * n_alphas
        assert json.loads(rep.read_text())["passed"] is True

    def test_deterministic_output(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out1)])
        run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        failing = DerivativeBoundReport(
            rows=(DerivativeBoundRow(MultiIndex.unit(1), 0, 2.0, 0.0, 2.0, False),),
            envelope=ParametricEnvelope(GevreyEnvelope(1.0, 1.0, 1.0), (1.0,)),
            constants={},
        )
        monkeypatch.setattr(cli, "verify_derivative_bounds", lambda *a, **k: failing)
        cfg = self.config(tmp_path)
        assert run_cli(["verify-bounds", "--config", str(cfg)]) == 3

    def test_violated_solution_bound_exit_code(self, tmp_path, capsys, monkeypatch):
        cfg = self.config(tmp_path)
        assert_violated_solution_bound_exits_2(monkeypatch, capsys, tmp_path,
                                               ["verify-bounds", "--config", str(cfg)])

    def test_csv_is_the_per_value_format(self, tmp_path, monkeypatch):
        # (measured, log bound, ratio); the bound is exp_or_inf(log bound)
        cases = [(-0.0, 0.0, -0.0), (5e-324, -math.inf, math.nan), (1e300, 1000.0, 1e-310),
                 (math.nan, 705.0, math.inf), (1.0 / 3.0, -700.0, -1e300), (2.5, math.nan, 5e-324)]
        rows = tuple(DerivativeBoundRow(MultiIndex.make({1: i % 3, 2: i // 3}), i % 2,
                                        m, lb, r, True)
                     for i, (m, lb, r) in enumerate(cases))
        report = DerivativeBoundReport(
            rows=rows, envelope=ParametricEnvelope(GevreyEnvelope(1.0, 1.0, 1.0), (1.0,)),
            constants={})
        monkeypatch.setattr(cli, "verify_derivative_bounds", lambda *a, **k: report)
        cfg, out = self.config(tmp_path), tmp_path / "bounds.csv"
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out)]) == 0
        want = "alpha,y_id,measured_norm,bound,ratio\n" + "".join(
            f"{row.alpha.label()},{row.y_index},{cli._fmt(row.measured)},"
            f"{cli._fmt(cli.exp_or_inf(row.log_bound))},{cli._fmt(row.ratio)}\n" for row in rows)
        assert out.read_text() == want
        assert "0,0,-0,1,-0\n" in want and "e1,1,4.94065645841e-324,0,nan\n" in want
        assert "2e1,0,1e+300,inf,1e-310\n" in want and ",2.5,nan,4.94065645841e-324\n" in want

    def test_bound_above_e700_prints_finite(self, tmp_path, monkeypatch):
        # exp(705) is finite; only an envelope value past the float range is inf
        scale = math.exp(705.0)
        report = DerivativeBoundReport(
            rows=(DerivativeBoundRow(MultiIndex.unit(1), 0, 2.0, 705.0, 2.0 / scale, True),),
            envelope=ParametricEnvelope(GevreyEnvelope(1.0, scale, 1.0), (1.0,)),
            constants={},
        )
        monkeypatch.setattr(cli, "verify_derivative_bounds", lambda *a, **k: report)
        cfg, out = self.config(tmp_path), tmp_path / "bounds.csv"
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out)]) == 0
        bound = float(out.read_text().splitlines()[1].split(",")[3])
        assert math.isfinite(bound) and bound == pytest.approx(scale, rel=1e-11)

    def test_unknown_key(self, tmp_path):
        cfg = self.config(tmp_path, mystery=1)
        assert run_cli(["verify-bounds", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("override", [
        {"mesh_n": "32"}, {"p": 2.9}, {"max_order": True}, {"y_samples": True},
        {"y_samples": 1.5}, {"seed": "7"}, {"c": "0.5"}, {"vartheta": "2"}, {"tol": None},
        {"c": math.nan}, {"tol": math.inf},
    ], ids=case_id)
    def test_non_numeric_values_rejected(self, tmp_path, capsys, override):
        cfg = self.config(tmp_path, **override)
        out = tmp_path / "bounds.csv"
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", [-1, -1e-12])
    def test_negative_tol_rejected(self, tmp_path, capsys, tol):
        cfg = self.config(tmp_path, tol=tol)
        out = tmp_path / "bounds.csv"
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out)]) == 1
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", UNREAD_NONLINEARITY_KEYS, ids=nonlinearity_id)
    def test_unread_nonlinearity_key_rejected(self, tmp_path, capsys, spec):
        cfg = self.config(tmp_path, nonlinearity=spec)
        out = tmp_path / "bounds.csv"
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out)]) == 1
        assert "unknown keys for nonlinearity" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        outs = []
        for p in (2, 2.0):
            outs.append(tmp_path / f"bounds{p}.csv")
            cfg = self.config(tmp_path, p=p, y_samples=1)
            assert run_cli(["verify-bounds", "--config", str(cfg), "--output",
                            str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("y_samples", [0, -2])
    def test_no_parameter_points_rejected(self, tmp_path, y_samples):
        cfg = self.config(tmp_path, y_samples=y_samples)
        out, rep = tmp_path / "bounds.csv", tmp_path / "bounds.json"
        code = run_cli(["verify-bounds", "--config", str(cfg), "--output", str(out),
                        "--report", str(rep)])
        assert code == 1
        assert not out.exists() and not rep.exists()


class TestGlobalBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "gevrey-kit" in capsys.readouterr().out

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        kappa, table = tmp_path / "k.csv", tmp_path / "d.csv"
        assert run_cli(["kappa", "--max-n", "3", "--output", str(kappa)]) == 0
        assert run_cli(["derivatives", "--problem", "scalar-cubic", "--order", "2",
                        "--output", str(table)]) == 0
        assert kappa.read_text().startswith("n,") and table.read_text().startswith("key,")
        with pytest.raises(SystemExit) as exc:
            cli.main(["kappa", "--max-n", "three"])
        assert exc.value.code == 1
        assert cli._build_parser() is cli._build_parser()

    def test_output_in_missing_directory_rejected(self, tmp_path, capsys):
        path = tmp_path / "missing" / "k.csv"
        assert run_cli(["kappa", "--max-n", "3", "--output", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write {path}: ")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def unwritable_report(tmp_path, monkeypatch, kind):
        """A report path in a missing directory, an existing directory, the
        empty path (run from tmp_path), or one whose file name is longer
        than NAME_MAX, with its config error."""
        monkeypatch.chdir(tmp_path)
        if kind == "missing":
            report = tmp_path / "missing" / "r.json"
            return str(report), f"cannot write {report}: no such directory"
        if kind == "empty":
            return "", "cannot write an empty path"
        if kind == "too-long":
            report = tmp_path / ("r" * os.pathconf(tmp_path, "PC_NAME_MAX") + ".json")
            return str(report), f"cannot write {report}: file name too long"
        (tmp_path / "taken").mkdir()
        return str(tmp_path / "taken"), f"cannot write {tmp_path / 'taken'}: is a directory"

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty", "too-long"])
    def test_unwritable_report_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                         kind):
        def never_reached(*args, **kwargs):
            raise AssertionError("solved before the output paths were checked")
        monkeypatch.setattr(cli, "newton_solve", never_reached)
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}}))
        report, message = self.unwritable_report(tmp_path, monkeypatch, kind)
        code = run_cli(["solve", "--config", str(cfg), "--output", str(tmp_path / "u.csv"),
                        "--report", report])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        # the output paths are checked before the solve, so no CSV is written
        assert not (tmp_path / "u.csv").exists()
        assert [path.name for path in tmp_path.iterdir() if path.name != "taken"] == ["solve.json"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty", "too-long"])
    def test_unwritable_verify_report_rejected_before_the_run(
            self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli, "verify_derivative_bounds", None)  # never reached
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "p": 2, "max_order": 2, "y_samples": 1}))
        report, message = self.unwritable_report(tmp_path, monkeypatch, kind)
        assert run_cli(["verify-bounds", "--config", str(cfg), "--output",
                        str(tmp_path / "out.csv"), "--report", report]) == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out.csv").exists()
        assert [path.name for path in tmp_path.iterdir()
                if path.name != "taken"] == ["verify.json"]

    @pytest.mark.parametrize("form", ["same", "dot-slash", "symlink"])
    @pytest.mark.parametrize("command", ["verify-bounds", "solve"])
    def test_output_and_report_naming_one_file_rejected(self, tmp_path, capsys, monkeypatch,
                                                        command, form):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "verify_derivative_bounds", None)  # never reached
        monkeypatch.setattr(cli, "newton_solve", None)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mesh_n": 16, "p": 2, "max_order": 2, "y_samples": 1}
                                  if command == "verify-bounds" else
                                  {"mesh_n": 16, "b": 1.0, "f": 1.0,
                                   "nonlinearity": {"kind": "cubic"}}))
        report = {"same": "out.csv", "dot-slash": "./out.csv", "symlink": "link.csv"}[form]
        if form == "symlink":
            os.symlink("out.csv", tmp_path / "link.csv")  # dangling until out.csv is written
        before = sorted(tmp_path.iterdir())
        assert run_cli([command, "--config", str(cfg), "--output", "out.csv",
                        "--report", report]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --output out.csv and --report {report} name one file"]
        assert sorted(tmp_path.iterdir()) == before

    def test_output_that_is_a_directory_rejected(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run_cli(["kappa", "--max-n", "3", "--output", str(taken)]) == 1
        assert capsys.readouterr().err == f"config error: cannot write {taken}: is a directory\n"
        assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []

    def test_output_name_longer_than_name_max_rejected(self, tmp_path, capsys):
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        path = tmp_path / ("k" * (name_max - 3) + ".csv")
        assert run_cli(["kappa", "--max-n", "3", "--output", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: cannot write {path}: file name too long\n"
        assert list(tmp_path.iterdir()) == []
        longest = tmp_path / ("k" * (name_max - 4) + ".csv")  # NAME_MAX bytes is allowed
        assert run_cli(["kappa", "--max-n", "3", "--output", str(longest)]) == 0
        assert list(tmp_path.iterdir()) == [longest]

    def test_empty_output_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["kappa", "--max-n", "3", "--output", ""]) == 1
        assert capsys.readouterr().err == "config error: cannot write an empty path\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        # the temp file is written, then cannot replace a directory
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(cli.ConfigError) as exc:
            cli._write_text(str(taken), "x")
        assert str(exc.value).startswith(f"cannot write {taken}: ")
        assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []

    def test_selftest_passes(self):
        assert run_cli(["selftest"]) == 0

    def test_import_loads_no_numpy_polynomial_or_fractions(self):
        # a fresh interpreter: this one has loaded both for the tests
        code = ("import sys, gevrey_kit.cli; "
                "print(sorted({'numpy.polynomial', 'fractions'} & set(sys.modules)))")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
