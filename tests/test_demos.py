"""Every script in ``demos/`` runs to completion and prints something."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


HYPERCUBE_CELL_MAP = """\
cube cells to 3-qubit labels:
  cell 0 -> (0, 0, 0)
  cell 1 -> (0, 0, 1)
  cell 2 -> (0, 1, 0)
  cell 3 -> (0, 1, 1)
  cell 4 -> (1, 0, 0)
  cell 5 -> (1, 0, 1)
  cell 6 -> (1, 1, 0)
  cell 7 -> (1, 1, 1)
diagonal cells: [(0, 0, 0), (1, 1, 1)]
"""


def test_hypercube_demo_cell_map(capsys):
    # Only the first block: the eigenvalue lines below it carry BLAS last bits.
    path = next(p for p in DEMOS if p.name == "hypercube_realization.py")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.split("\n\n")[0] + "\n" == HYPERCUBE_CELL_MAP
