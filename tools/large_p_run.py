"""Time one large one-point parametric verification in a fresh process.

    PYTHONPATH=src python3 tools/large_p_run.py P ORDER KIND

Runs one `verify_derivative_bounds` call at a single parameter point, as
`verify-bounds` does with y_samples 1: mesh 256, seed 1, data a = b = f = 1,
the displacement family of dimension P (c = 0.5, vartheta = 2), every
derivative up to ORDER and the nonlinearity KIND (cubic or tanh_shifted).
Prints the wall time of the call and the process's peak resident set size
(`ru_maxrss`), which at P = 8 and ORDER = 7 is the Taylor fill's.  Start
it anew for each measurement, so the peak is that of one run, and alternate
the sources compared.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

from gevrey_kit.parametric import DomainMap1D, verify_derivative_bounds
from gevrey_kit.pde1d import Mesh1D, Nonlinearity, PdeData


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[2] not in ("cubic", "tanh_shifted"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    p, order, kind = int(argv[0]), int(argv[1]), argv[2]
    mesh = Mesh1D.uniform(256)
    dmap = DomainMap1D(p)
    hat = PdeData.from_spec(mesh, a=1.0, b=1.0, f=1.0)
    ys = [np.random.default_rng(1).uniform(-0.5, 0.5, p)]
    start = time.perf_counter()
    report = verify_derivative_bounds(dmap, hat, mesh, getattr(Nonlinearity, kind)(), ys,
                                      max_order=order)
    wall = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"p={p} order={order} kind={kind} rows={len(report.rows)} "
          f"wall_s={wall:.3f} peak_rss_mib={peak_mib:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
