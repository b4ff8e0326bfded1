"""The import graph: each import loads only what its module needs.

Every check runs in a fresh interpreter, since this test session has
already imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ucsk.colorimetry import ChromaticityPoint
from ucsk.constellation import (
    build_constellation,
    constellation_document,
    write_constellation_json,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter with ``src`` first on its path."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def loaded_by_command(argv: list[str]) -> set[str]:
    """``loaded_after`` a ``ucsk.cli.main(argv)`` that exits 0."""
    return loaded_after(f"from ucsk.cli import main; assert main({argv!r}) == 0")


def scipy_modules(loaded: set[str]) -> list[str]:
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


def test_package_root_loads_no_submodule():
    loaded = loaded_after("import ucsk")
    assert "ucsk" in loaded
    assert sorted(m for m in loaded if m.startswith("ucsk.")) == []


def test_link_model_loads_no_optimizer():
    loaded = loaded_after("import ucsk.linksim")
    assert "ucsk.linksim" in loaded
    assert "ucsk.optimizer" not in loaded
    assert "scipy.optimize" not in loaded


def test_gamut_loads_no_scipy():
    loaded = loaded_after("import ucsk.colorimetry")
    assert "ucsk.colorimetry" in loaded
    assert scipy_modules(loaded) == []


def test_cli_loads_no_scipy():
    loaded = loaded_after("import ucsk.cli")
    assert "ucsk.cli" in loaded
    assert scipy_modules(loaded) == []
    assert "ucsk.optimizer" not in loaded
    assert "ucsk.linksim" not in loaded


def test_validate_loads_no_scipy():
    loaded = loaded_by_command(["validate", "--constellation", "table1-t3o1"])
    assert scipy_modules(loaded) == []


def test_ser_loads_no_optimizer_or_hull(tmp_path):
    design = tmp_path / "c.json"
    c = build_constellation(ChromaticityPoint(0.45, 0.30), ChromaticityPoint(0.30, 0.55))
    write_constellation_json(design, constellation_document(c))
    loaded = loaded_by_command(
        ["ser", "--constellation", str(design), "--water", "seawater",
         "--distance", "10", "--snr", "10:10:10", "--symbols", "10000",
         "--out", str(tmp_path / "ser.csv")]
    )
    assert "scipy.special" in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.spatial" not in loaded
