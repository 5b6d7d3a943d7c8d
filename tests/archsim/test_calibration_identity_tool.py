"""Smoke test of ``tools/calibration_identity.py`` on a short trace.

The tool is the exactness check for the FIFO/random calibration route;
it reaches into ``missmodel._grid_points``, ``missmodel._point_configs``
and ``profile_store._compute_surface``, so this runs it end to end.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = (Path(__file__).resolve().parents[2] / "tools"
        / "calibration_identity.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("calibration_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def written(tool, tmp_path_factory):
    """One short collect() run, written the way ``--out`` writes it."""
    patch = pytest.MonkeyPatch()
    patch.setattr(tool, "N_ACCESSES", 3_000)
    try:
        outputs = tool.collect()
    finally:
        patch.undo()
    path = tmp_path_factory.mktemp("identity") / "tree.npz"
    np.savez(path, **outputs)
    return path, outputs


def test_covers_grids_and_surfaces(written):
    _, outputs = written
    grid = [key for key in outputs if key.startswith("grid/")]
    surfaces = [key for key in outputs if key.startswith("surface/")]
    # 2 policies x 3 workloads x (5 L1 + 7 L2 sizes) x 5 assocs.
    assert len(grid) == 2 * 3 * 12 * 5
    # 2 policies x spec2000 x 2 levels x (shapes, rates).
    assert len(surfaces) == 2 * 2 * 2


def test_identical_files_compare_equal(tool, written, capsys):
    path, _ = written
    assert tool.compare(str(path), str(path)) == 0
    assert "identical: 360 grid points and 2 dense surfaces" in (
        capsys.readouterr().out
    )


def test_one_changed_rate_is_reported(tool, written, tmp_path, capsys):
    path, outputs = written
    key = next(key for key in sorted(outputs)
               if key.startswith("surface/") and key.endswith("/rates"))
    changed = dict(outputs)
    changed[key] = outputs[key].copy()
    changed[key][0] = np.nextafter(changed[key][0], 1.0)
    other = tmp_path / "changed.npz"
    np.savez(other, **changed)
    assert tool.compare(str(path), str(other)) == 1
    out = capsys.readouterr().out
    assert f"differs: {key}" in out
    assert "FAIL: 1 difference(s)" in out
