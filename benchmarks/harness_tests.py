"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/harness_tests.py

The file name keeps these tests out of the package's own test run: they
execute real operations and take about fifteen seconds.  Each checker must
accept a real output and reject deliberately perturbed copies of it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI_MAIN = run.import_program()


def _run(workload, tmp_path, call=CLI_MAIN):
    op = workload.prepare(np.random.default_rng([7, 0]), tmp_path)
    return op, call(op.argv)


def _perturbed(rows, key, field, value):
    out = copy.deepcopy(rows)
    for row in out:
        if key(row):
            row[field] = value(row[field])
            return out
    raise AssertionError("no row to perturb")


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == tracing.PER_LAYER + run.TRACE_SUMMARY)


def test_verify_checker_rejects_perturbed_output(tmp_path):
    workload = workloads.WORKLOADS["verify-tanh"]
    op, exit_code = _run(workload, tmp_path)
    rows = op.rows()
    reference = checks.verify_reference(op.params)

    def check(rows, exit_code=exit_code):
        return checks.check_verify(exit_code, rows, workload.rows_per_op, reference)

    assert check(rows) == []
    assert check(rows, exit_code=3)
    assert check(rows[:-1])
    assert check(_perturbed(rows, lambda r: r["alpha"] == "5e1", "ratio", lambda v: "1.5"))
    for label in ("e2", "2e1"):
        assert check(_perturbed(rows, lambda r: r["alpha"] == label, "measured_norm",
                                lambda v: repr(float(v) * (1.0 + 1e-4))))


def test_derivatives_checker_rejects_perturbed_output(tmp_path):
    workload = workloads.DerivativesFd("derivatives-fd-small", "", order=3)
    op, exit_code = _run(workload, tmp_path)
    rows = op.rows()
    reference = checks.derivatives_reference(workload.mesh_n, op.params["directions"])

    def check(rows):
        return checks.check_derivatives(exit_code, rows, workload.rows_per_op, reference)

    assert check(rows) == []
    assert check(rows[:-1])
    assert check(_perturbed(rows, lambda r: r["key"] == "1+2+2", "fd_norm",
                            lambda v: repr(float(v) * 1.01)))
    for key in ("2", "1+2"):
        assert check(_perturbed(rows, lambda r: r["key"] == key, "norm",
                                lambda v: repr(float(v) * (1.0 + 1e-5))))


def test_solve_checker_rejects_perturbed_output(tmp_path):
    workload = workloads.WORKLOADS["solve-report"]
    op, exit_code = _run(workload, tmp_path)
    rows, report = op.rows(), op.report_json()
    reference = checks.solve_reference(op.params)

    def check(rows=rows, report=report, exit_code=exit_code):
        return checks.check_solve(exit_code, rows, report, op.params, reference)

    def changed(edit):
        out = copy.deepcopy(report)
        edit(out)
        return out

    assert check() == []
    assert check(exit_code=2)
    mid = len(rows) // 2
    assert check(rows=_perturbed(rows, lambda r: r["x"] == rows[mid]["x"], "u",
                                 lambda v: repr(float(v) + 1e-6)))
    assert check(report=changed(lambda r: r.update(residual_norm=1e-9)))
    assert check(report=changed(
        lambda r: r["bound_checks"]["monotonicity"].update(ok=False)))
    assert check(report=changed(
        lambda r: r["constants"].update(alpha_measured=r["constants"]["alpha"] * 1.01)))
    for name in ("c_pf", "embedding"):
        assert check(report=changed(
            lambda r: r["constants"].update({name: r["constants"][name] + 1e-6})))


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    import gevrey_kit.pde1d as pde1d

    originals = (pde1d.apply_residual_derivative, pde1d.Mesh1D.at_quad,
                 pde1d.Mesh1D.__dict__["embedding_constant"].func)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, exit_code = _run(workloads.WORKLOADS["verify-tanh"], tmp_path,
                            lambda argv: tracer.call(CLI_MAIN, argv))
    assert exit_code == 0
    metrics, table, spans = tracer.collect()
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    # tanh has no degree cut-off, so every r up to the order 5 is assembled.
    assert all(metrics[f"pde1d.residual_derivative.r{r}.calls"] > 0 for r in range(1, 6))
    assert metrics["parametric.order5.s"] > 0.0
    assert metrics["combinatorics.compositions_listed"] > metrics[
        "combinatorics.multi_index_compositions.calls"]
    assert metrics["pde1d.at_quad.calls"] > metrics["pde1d.residual_derivative.calls"]
    assert (metrics["implicit_diff.residual_evals"]
            >= metrics["implicit_diff.newton_iterations"] + metrics[
                "implicit_diff.solve_residual.calls"])
    assert 0.0 < metrics["cli.self_s"] < table["cli.main"]["total_s"]
    assert len(spans) == sum(row["calls"] for row in table.values())
    assert (pde1d.apply_residual_derivative, pde1d.Mesh1D.at_quad,
            pde1d.Mesh1D.__dict__["embedding_constant"].func) == originals
    _run(workloads.WORKLOADS["verify-tanh"], tmp_path)
    assert tracer.spans == [] and not tracer.counters


def test_quick_mode_passes():
    assert run.main(["--quick"]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-cubic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
