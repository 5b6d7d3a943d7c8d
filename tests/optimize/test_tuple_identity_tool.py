"""``tools/tuple_identity.py --compare`` on small synthetic files.

The tool is the exactness check any change to the device, circuit or
component models rests on; its ``collect()`` takes seconds, so this
checks ``compare`` alone, on files written the way ``--out`` writes
them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "tuple_identity.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("tuple_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def outputs(tool):
    """One key of every kind ``collect()`` records."""
    table = f"{tool.TABLE_PREFIX}65itrs/l1/fast/decoder/"
    frontier = f"{tool.FRONTIER_PREFIX}65itrs/l1/"
    return {
        table + "d": np.array([[1.5e-10, 1.7e-10], [1.6e-10, 1.9e-10]]),
        table + "l": np.array([[2.0e-4, 1.1e-4], [9.0e-5, 4.0e-5]]),
        table + "e": np.array([[3.0e-12, 3.1e-12], [3.0e-12, 3.1e-12]]),
        f"{tool.SOLVE_PREFIX}65itrs/l1/scheme-1/0.05": np.array(
            [0.3, 1.2e-9, 0.35, 1.3e-9, 2.1e-10, 5.0e-4]),
        frontier + "d": np.array([2.0e-10, 2.2e-10]),
        frontier + "l": np.array([6.0e-4, 4.0e-4]),
        frontier + "knobs": np.array([[0.3, 1.2e-9], [0.35, 1.3e-9]]),
        "65itrs2x2a": np.array([1.1e-9, 1.2e-9]),
        "65itrs2x2e": np.array([4.0e-10, 3.5e-10]),
        "65itrs-fill0-2x2a": np.array([1.1e-9, 1.2e-9]),
        "65itrs-fill0-2x2e": np.array([3.9e-10, 3.4e-10]),
        tool.JOINT_KEY: np.array("MemorySystemDesign(...)"),
    }


def _write(path, outputs):
    np.savez(path, **outputs)
    return str(path)


def test_identical_files_compare_equal(tool, outputs, tmp_path, capsys):
    path = _write(tmp_path / "tree.npz", outputs)
    assert tool.compare(path, path) == 0
    assert ("identical: 1 component tables, 1 scheme solves, "
            "1 Scheme I frontier, 2 curves and the joint design") in (
        capsys.readouterr().out
    )


def test_one_ulp_is_a_difference(tool, outputs, tmp_path, capsys):
    key = f"{tool.TABLE_PREFIX}65itrs/l1/fast/decoder/l"
    changed = dict(outputs)
    changed[key] = outputs[key].copy()
    changed[key][1, 0] = np.nextafter(changed[key][1, 0], 1.0)
    first = _write(tmp_path / "a.npz", outputs)
    second = _write(tmp_path / "b.npz", changed)
    assert tool.compare(first, second) == 1
    out = capsys.readouterr().out
    assert f"differs: {key}" in out
    assert "FAIL: 1 difference(s)" in out


def test_missing_key_is_named(tool, outputs, tmp_path, capsys):
    key = "65itrs2x2e"
    fewer = {name: value for name, value in outputs.items() if name != key}
    first = _write(tmp_path / "a.npz", outputs)
    second = _write(tmp_path / "b.npz", fewer)
    assert tool.compare(first, second) == 1
    out = capsys.readouterr().out
    assert f"only in {first}: {key}" in out
    assert "FAIL: 1 difference(s)" in out
