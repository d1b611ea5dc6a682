"""scipy's compiled kernels, loaded from their files without scipy's package inits."""

import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gevrey_kit import _scipy_kernels, combinatorics, pde1d

SRC = Path(__file__).resolve().parents[1] / "src"

#: A fresh interpreter runs two commands, then prints their exit codes and
#: every loaded scipy module.
RUN_PATH = """
import json, sys
import gevrey_kit.cli as cli
codes = [cli.main(["verify-bounds", "--config", "verify.json", "--output", "bounds.csv"]),
         cli.main(["solve", "--config", "solve.json", "--output", "u.csv",
                   "--report", "report.json"])]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("scipy"))]))
"""


def test_run_path_loads_only_the_two_extension_modules(tmp_path):
    # the fill and the Newton solve run, not just the imports
    (tmp_path / "verify.json").write_text(json.dumps(
        {"mesh_n": 16, "p": 2, "max_order": 3, "y_samples": 1, "seed": 1,
         "nonlinearity": {"kind": "cubic"}}))
    (tmp_path / "solve.json").write_text(json.dumps(
        {"mesh_n": 16, "nonlinearity": {"kind": "cubic"}}))
    proc = subprocess.run([sys.executable, "-c", RUN_PATH], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert (tmp_path / "bounds.csv").read_text().startswith("alpha,y_id,")
    assert scipy_modules == ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]


def test_missing_file_raises_naming_its_path(tmp_path, monkeypatch):
    probed = []
    isfile = os.path.isfile
    monkeypatch.setattr(os.path, "isfile", lambda path: probed.append(path) or isfile(path))
    loaded = set(sys.modules)
    with pytest.raises(ImportError) as info:
        _scipy_kernels.load_extension(str(tmp_path), "scipy.linalg._flapack")
    expected = str(tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]))
    assert expected in str(info.value) and info.value.path == expected
    assert probed == [expected]  # no other file or module was tried
    assert set(sys.modules) == loaded


def test_kernels_are_scipys_own_objects():
    from scipy.linalg import lapack
    from scipy.sparse import _sparsetools

    assert pde1d.dpttrf is lapack.dpttrf
    assert pde1d.dpttrs is lapack.dpttrs
    assert pde1d.dptsv is lapack.dptsv
    assert combinatorics.csr_matvecs is _sparsetools.csr_matvecs
    # a second load of a loaded file returns the module already loaded
    again = _scipy_kernels.load_extension(os.path.join(_scipy_kernels._SCIPY_DIR, "linalg"),
                                          "scipy.linalg._flapack")
    assert again is sys.modules["scipy.linalg._flapack"]
    assert again.dpttrf is pde1d.dpttrf
