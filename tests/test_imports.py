"""Start-up without numpy: the paths that time candidates from the cost
models never load it.

numpy backs the functional reference kernels and SpMV's CSR structure
only, so ``import repro``, a search, a tournament and ``repro run`` of a
uniform-work app must finish with ``numpy`` absent from ``sys.modules``.
Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: printed by every script as its last line
PROBE = "print('numpy' in sys.modules)"


def _numpy_loaded(body: str) -> bool:
    """Run ``body`` in a fresh interpreter; whether numpy got loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\n{PROBE}\n"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.split()
    return {"True": True, "False": False}[out[-1]]


def _cli(*argv: str) -> str:
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0"


SEARCH = """
from repro import shen_icpp15_platform
from repro.partition.search import search_plan
result = search_plan("HotSpot", shen_icpp15_platform(), n=1024,
                     iterations=2, sync=True, grid=3, rounds=0)
assert result.evaluated
"""

TOURNAMENT = """
from repro import shen_icpp15_platform
from repro.core.tournament import run_tournament
result = run_tournament(shen_icpp15_platform(), scale=0.01,
                        apps=("HotSpot", "STREAM-Loop"))
assert result.matches
"""


@pytest.mark.parametrize("body", [
    "import repro",
    "import repro.cli",
    SEARCH,
    TOURNAMENT,
    _cli("run", "HotSpot", "-n", "1024", "-i", "2"),
], ids=["import-repro", "import-cli", "search", "tournament", "run-hotspot"])
def test_numpy_is_not_loaded(body):
    assert not _numpy_loaded(body)


def test_cache_dir_round_trip_leaves_numpy_unloaded(tmp_path):
    """Saving a cold ``--cache-dir`` snapshot and loading it warm."""
    run = _cli("run", "HotSpot", "-n", "1024", "-i", "2",
               "--cache-dir", str(tmp_path / "memo"))
    assert not _numpy_loaded(run)
    assert any((tmp_path / "memo").iterdir())
    assert not _numpy_loaded(run)


def test_spmv_loads_numpy():
    """Positive control: SpMV's CSR structure is built with numpy."""
    assert _numpy_loaded(_cli("run", "SpMV", "-n", "1024"))
