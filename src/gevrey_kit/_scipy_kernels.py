"""The compiled scipy kernels of the run path, loaded straight from their files.

The run path needs four compiled functions from scipy: LAPACK's
tridiagonal LDL^T `dpttrf`/`dpttrs` and the two in one call, `dptsv`
(f2py wrappers in `scipy.linalg._flapack`), and the CSR-times-dense-block
product `csr_matvecs` (`scipy.sparse._sparsetools`, what `csr_matrix @ block`
runs).
Importing them through `scipy.linalg` or `scipy.sparse` runs those package
inits, and through `scipy._lib._array_api` numpy.f2py and numpy.testing:
most of the start-up of a command.  `load_extension` loads the one
compiled file instead, so no scipy package init runs; scipy's Python
packages serve `selftest` and the tests only.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType


def load_extension(directory: str, name: str) -> ModuleType:
    """The compiled module `name` (dotted, as in "scipy.linalg._flapack")
    from its file in `directory` with this interpreter's extension suffix.
    CPython enters it in sys.modules, so `from scipy.linalg import _flapack`
    finds it, and a module already loaded from that file is returned, not
    loaded again.  It is no attribute of a scipy package imported later.
    Raises ImportError naming the path when there is no such file."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(directory, name.rpartition(".")[2] + suffix)
    if not os.path.isfile(path):
        raise ImportError(f"no compiled module {name} at {path}", name=name, path=path)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ImportError("gevrey_kit needs scipy", name="scipy")
_SCIPY_DIR = _scipy.submodule_search_locations[0]
_flapack = load_extension(os.path.join(_SCIPY_DIR, "linalg"), "scipy.linalg._flapack")
dpttrf, dpttrs, dptsv = _flapack.dpttrf, _flapack.dpttrs, _flapack.dptsv
_sparsetools = load_extension(os.path.join(_SCIPY_DIR, "sparse"), "scipy.sparse._sparsetools")
csr_matvecs = _sparsetools.csr_matvecs
