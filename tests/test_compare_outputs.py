"""`tools/compare_outputs.py`: one line per file, exit 1 on a flip."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

REPORT = {"constants": {"alpha": 2.0, "c_pf": 1.0}, "envelope": {"weights": [0.5, 0.25]},
          "bound_checks": {"monotonicity": {"ok": True, "threshold": 0.5}}, "passed": True}
FILES = {
    "run.csv": "key,norm,bound\nbase,1,2\ne1,0,4\n",
    "run.json": json.dumps(REPORT, indent=2),
    "selftest.txt": "ok - first\nok - second\nselftest: pass (2 checks)\n",
    "exit_codes.txt": "run 0\nselftest 0\n",
}


def write(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def compare(tmp_path, **changed):
    lines = []
    parent = write(tmp_path / "parent", FILES)
    change = write(tmp_path / "change", {**FILES, **changed})
    code = compare_outputs.compare_dirs(parent, change, out=lines.append)
    return code, dict(line.split(": ", 1) for line in lines)


def test_identical_directories(tmp_path):
    code, lines = compare(tmp_path)
    assert code == 0
    assert lines == dict.fromkeys(FILES, "identical")


def test_changed_columns_and_keys_with_their_largest_relative_change(tmp_path):
    report = json.loads(FILES["run.json"])
    report["constants"]["alpha"] = 2.5
    report["envelope"]["weights"] = [0.5, 0.3]
    report["bound_checks"]["monotonicity"]["threshold"] = 0.5
    code, lines = compare(tmp_path, **{"run.csv": "key,norm,bound\nbase,1,2.2\ne1,0.5,3\n",
                                       "run.json": json.dumps(report, indent=4)})
    assert code == 0
    assert lines["run.csv"] == "changed norm max rel inf, bound max rel 0.25"
    assert lines["run.json"] == ("changed constants.alpha max rel 0.25, "
                                 "envelope.weights[] max rel 0.2")
    assert lines["selftest.txt"] == "identical"


def test_same_values_in_other_bytes(tmp_path):
    code, lines = compare(tmp_path, **{"run.csv": "key,norm,bound\nbase,1.0,2\ne1,0,4\n"})
    assert code == 0 and lines["run.csv"] == "changed formatting only"


@pytest.mark.parametrize("name, text, flip", [
    ("run.json", FILES["run.json"].replace('"passed": true', '"passed": false'),
     "FLIPPED passed True -> False"),
    ("run.json", FILES["run.json"].replace('"ok": true', '"ok": false'),
     "FLIPPED bound_checks.monotonicity.ok True -> False"),
    ("exit_codes.txt", "run 2\nselftest 0\n", "FLIPPED 'run 0' -> 'run 2'"),
    ("selftest.txt", "ok - first\nFAIL - second: why\nselftest: FAIL (2 checks)\n",
     "FLIPPED 'ok - second' -> 'FAIL - second: why'"),
], ids=["passed", "ok", "exit-code", "selftest"])
def test_a_flip_fails(tmp_path, name, text, flip):
    code, lines = compare(tmp_path, **{name: text})
    assert code == 1
    assert lines[name] == flip


def test_mismatched_files_fail(tmp_path):
    code, lines = compare(tmp_path, **{"run.csv": "key,norm,bound\nbase,1,2\n",
                                       "extra.csv": "x\n1\n"})
    assert code == 1
    assert lines["run.csv"] == "MISMATCH 2 rows in the parent, 1 in the change"
    assert lines["extra.csv"] == f"MISMATCH only in {tmp_path / 'change'}"


def test_usage(tmp_path, capsys):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert "compare_outputs.py PARENT_DIR CHANGE_DIR" in capsys.readouterr().err
