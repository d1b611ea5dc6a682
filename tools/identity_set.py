"""Write the byte-identity set of gevrey-kit outputs to a directory.

    PYTHONPATH=src python3 tools/identity_set.py OUTDIR

Runs, through `gevrey_kit.cli.main`, the commands whose outputs a change
that claims the same numbers must leave byte-identical:

* `verify-bounds` for cubic (p = 4) and tanh_shifted (p = 3), order 5,
  mesh 256, seeds 1-3, y_samples 1 and 2: CSV and report;
* `derivatives --problem pde1d --order 6 --fd-check` along two {a, b, f}
  directions at mesh 256: CSV;
* `solve --report` for cubic with Dirichlet ends at mesh 4096 and for
  tanh_shifted with a Neumann right end (g = 0.5) at mesh 512: CSV and report;
* `selftest`: stdout.

Every exit code goes to OUTDIR/exit_codes.txt.  Run it once with the
parent's sources on PYTHONPATH and once with the change's, into two
directories, and compare them with `diff -r`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from gevrey_kit.cli import main


def _config(out: Path, name: str, value) -> str:
    path = out / "inputs" / name
    path.write_text(json.dumps(value, sort_keys=True))
    return str(path)


def commands(out: Path):
    """(name, argv) of every command of the set; inputs go to out/inputs."""
    for kind, p in (("cubic", 4), ("tanh_shifted", 3)):
        for seed in (1, 2, 3):
            for y_samples in (1, 2):
                name = f"verify-{kind}-seed{seed}-y{y_samples}"
                cfg = {"mesh_n": 256, "p": p, "c": 0.5, "vartheta": 2.0,
                       "nonlinearity": {"kind": kind}, "max_order": 5,
                       "y_samples": y_samples, "seed": seed, "tol": 1e-12}
                yield name, ["verify-bounds", "--config", _config(out, f"{name}.json", cfg),
                             "--output", str(out / f"{name}.csv"),
                             "--report", str(out / f"{name}.json")]
    directions = [{"a": 0.2, "b": 0.1, "f": 1.0}, {"a": -0.3, "b": 0.25, "f": -0.5}]
    yield "derivatives-fd", [
        "derivatives", "--problem", "pde1d", "--order", "6", "--mesh-n", "256",
        "--directions", _config(out, "directions.json", directions), "--fd-check",
        "--output", str(out / "derivatives-fd.csv")]
    for name, cfg in (
            ("solve-cubic", {"mesh_n": 4096, "bc": "dirichlet", "a": 1.0, "b": 1.0, "f": 1.0,
                             "nonlinearity": {"kind": "cubic"}, "seed": 1}),
            ("solve-tanh", {"mesh_n": 512, "bc": "neumann", "a": 1.0, "b": 1.0, "f": 1.0,
                            "g": 0.5, "nonlinearity": {"kind": "tanh_shifted"}, "seed": 1})):
        yield name, ["solve", "--config", _config(out, f"{name}.json", cfg),
                     "--output", str(out / f"{name}.csv"), "--report", str(out / f"{name}.json")]


def main_(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    out = Path(argv[0])
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    codes = []
    for name, args in commands(out):
        codes.append(f"{name} {main(args)}\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes.append(f"selftest {main(['selftest'])}\n")
    (out / "selftest.txt").write_text(stdout.getvalue())
    (out / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
