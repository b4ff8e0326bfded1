"""The import graph: each import loads only what its module needs.

Every check runs in a fresh interpreter, since this test session has
already imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    return set(json.loads(out.stdout))


def test_package_root_loads_no_submodule():
    loaded = loaded_after("import ucsk")
    assert "ucsk" in loaded
    assert sorted(m for m in loaded if m.startswith("ucsk.")) == []


def test_link_model_loads_no_optimizer():
    loaded = loaded_after("import ucsk.linksim")
    assert "ucsk.linksim" in loaded
    assert "ucsk.optimizer" not in loaded
    assert "scipy.optimize" not in loaded
