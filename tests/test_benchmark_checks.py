"""The benchmark judges each operation's outputs with its own checks
(`benchmarks/checks.py`): finite-difference columns within their error
indicators, norms against independent difference quotients and closed
forms.  A few operations of every workload, with the inputs the benchmark
draws, must pass them, so a change that breaks an output fails here and
not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gevrey_kit.cli import main as cli_main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
#: The benchmark's default seed.
SEED = 1


def _load(name):
    """Run a benchmark module from its file, registered by its plain name
    while it loads: workloads imports checks by that name."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(sys.modules):  # leaves no plain `checks` module behind
    _load("checks")
    workloads = _load("workloads")


#: The operations drawn from the seed per workload: more for derivatives-fd,
#: whose finite-difference columns amplify round-off.
OPERATIONS = {name: 12 if name == "derivatives-fd" else 6 for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name, index", [(name, index) for name, count in OPERATIONS.items()
                                         for index in range(count)])
def test_benchmark_operation_passes_its_checks(name, index, tmp_path):
    workload = workloads.WORKLOADS[name]
    # the draws of `benchmarks/run.py`: one generator per operation index
    op = workload.prepare(np.random.default_rng([SEED, index]), tmp_path)
    assert workload.check(op, cli_main(op.argv)) == []
