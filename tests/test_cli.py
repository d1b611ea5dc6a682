"""Command line front end: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import gevrey_kit.cli as cli
from gevrey_kit.combinatorics import MultiIndex
from gevrey_kit.envelopes import GevreyEnvelope, ParametricEnvelope
from gevrey_kit.parametric import DerivativeBoundReport, DerivativeBoundRow


def run_cli(args):
    return cli.main(args)


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

    def test_invalid_order(self):
        assert run_cli(["derivatives", "--problem", "scalar-cubic", "--order", "0"]) == 1


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

    def test_unknown_key(self, tmp_path):
        cfg = self.config(tmp_path, mystery=1)
        assert run_cli(["verify-bounds", "--config", str(cfg)]) == 1


class TestGlobalBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "gevrey-kit" in capsys.readouterr().out

    def test_thread_cap_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GEVREY_KIT_THREADS", "not-a-number")
        assert run_cli(["kappa", "--max-n", "3"]) == 1
        monkeypatch.setenv("GEVREY_KIT_THREADS", "2")
        out = tmp_path / "k.csv"
        assert run_cli(["kappa", "--max-n", "3", "--output", str(out)]) == 0

    def test_selftest_passes(self):
        assert run_cli(["selftest"]) == 0
