"""Compare two identity-set directories of gevrey-kit outputs, file by file.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two directories that `tools/identity_set.py`
wrote, one with each version of the sources.  For every file of either
directory it prints one line:

* `NAME: identical` when the bytes agree;
* `NAME: changed KEY max rel X, ...` listing each changed CSV column or
  JSON key with its largest relative change |change - parent| / |parent|
  over the rows or list entries (`inf` where the parent's value is 0, and
  `text` where a changed value is not a number).  A JSON key is its dotted
  path; list entries share one key, KEY[];
* `NAME: FLIPPED ...` for every `ok` or `passed` value, `selftest` check
  or exit code that differs, and `NAME: MISMATCH ...` for a file that only
  one side has or whose CSV header or row count differs.

Exits 1 if anything flipped or mismatched, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

_FLAGS = ("ok", "passed")
_CHECK_LINE = re.compile(r"^(ok|FAIL) - ([^:]*)")


def _relative_change(old, new) -> float | str:
    """|new - old| / |old| for two numbers (JSON values or CSV cells), else "text"."""
    if isinstance(old, bool) or isinstance(new, bool):
        return "text"
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "text"
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _flatten(value, key: str = "") -> list[tuple[str, object]]:
    """(dotted key, leaf) of a JSON value; every list entry gets the key KEY[]."""
    if isinstance(value, dict):
        return [leaf for k, v in value.items() for leaf in _flatten(v, f"{key}.{k}" if key else k)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in _flatten(v, f"{key}[]")]
    return [(key, value)]


class _Changes:
    """The largest relative change per key, and the flips, of one file."""

    def __init__(self):
        self.largest: dict[str, float | str] = {}
        self.flips: list[str] = []

    def compare(self, key: str, old, new) -> None:
        if old == new:
            return
        if key.rpartition(".")[2] in _FLAGS:
            self.flips.append(f"{key} {old} -> {new}")
            return
        change = _relative_change(old, new)
        previous = self.largest.get(key, 0.0)
        if change == "text" or previous == "text":
            self.largest[key] = "text"
        else:
            self.largest[key] = max(previous, change)

    def line(self, name: str) -> str:
        if self.flips:
            return f"{name}: FLIPPED " + ", ".join(self.flips)
        changed = [f"{key} max rel {c}" if c == "text" else f"{key} max rel {c:.3g}"
                   for key, c in self.largest.items() if c != 0.0]
        if not changed:  # same values, other bytes
            return f"{name}: changed formatting only"
        return f"{name}: changed " + ", ".join(changed)


def _compare_csv(old: str, new: str, changes: _Changes) -> str | None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return "CSV headers differ"
    if len(old_rows) != len(new_rows):
        return f"{len(old_rows) - 1} rows in the parent, {len(new_rows) - 1} in the change"
    header = old_rows[0]
    changes.largest = dict.fromkeys(header, 0.0)  # listed in column order
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        if len(old_row) != len(header) or len(new_row) != len(header):
            return "a row does not match the header"
        for column, a, b in zip(header, old_row, new_row):
            changes.compare(column, a, b)
    return None


def _compare_json(old: str, new: str, changes: _Changes) -> str | None:
    old_leaves, new_leaves = _flatten(json.loads(old)), _flatten(json.loads(new))
    if [k for k, _ in old_leaves] != [k for k, _ in new_leaves]:
        return "JSON keys differ"
    changes.largest = dict.fromkeys((k for k, _ in old_leaves), 0.0)  # in file order
    for (key, a), (_, b) in zip(old_leaves, new_leaves):
        changes.compare(key, a, b)
    return None


def _compare_lines(name: str, old: str, new: str, changes: _Changes) -> str | None:
    """Exit codes ("NAME CODE" per line) and selftest checks ("ok - NAME" or
    "FAIL - NAME: why") flip; any other changed line is text."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} lines in the parent, {len(new_lines)} in the change"
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        checks = _CHECK_LINE.match(a), _CHECK_LINE.match(b)
        if name == "exit_codes.txt" or all(checks):
            changes.flips.append(f"{a!r} -> {b!r}")
        else:
            changes.compare(f"line {number}", a, b)
    return None


def compare_file(name: str, old: bytes, new: bytes) -> tuple[str, bool]:
    """(printed line, whether it fails the comparison) for one file."""
    if old == new:
        return f"{name}: identical", False
    changes = _Changes()
    old_text, new_text = old.decode(), new.decode()
    if name.endswith(".csv"):
        mismatch = _compare_csv(old_text, new_text, changes)
    elif name.endswith(".json"):
        mismatch = _compare_json(old_text, new_text, changes)
    else:
        mismatch = _compare_lines(name, old_text, new_text, changes)
    if mismatch is not None:
        return f"{name}: MISMATCH {mismatch}", True
    return changes.line(name), bool(changes.flips)


def compare_dirs(parent: Path, change: Path, out=print) -> int:
    files = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    failed = False
    for name in files:
        sides = [root / name for root in (parent, change)]
        if not all(path.is_file() for path in sides):
            where = parent if sides[0].is_file() else change
            line, bad = f"{name}: MISMATCH only in {where}", True
        else:
            line, bad = compare_file(name, sides[0].read_bytes(), sides[1].read_bytes())
        out(line)
        failed |= bad
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return compare_dirs(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
