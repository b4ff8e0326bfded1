"""The import graph: each import loads only what its module needs.

Every check runs in a fresh interpreter, since this test session has
already imported the whole package.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ucsk.colorimetry import ChromaticityPoint
from ucsk.constellation import (
    build_constellation,
    constellation_document,
    write_constellation_json,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` after ``statement`` (one line or a
    block) runs in a fresh interpreter with ``src`` first on its path."""
    code = (
        f"import json, sys\n{textwrap.dedent(statement)}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
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
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded


def test_gamut_loads_no_scipy():
    loaded = loaded_after("import ucsk.colorimetry")
    assert "ucsk.colorimetry" in loaded
    assert scipy_modules(loaded) == []


def test_optimizer_loads_no_scipy_optimize():
    loaded = loaded_after("import ucsk.optimizer")
    assert "ucsk.optimizer" in loaded
    assert "scipy.optimize" not in loaded


def test_design_loads_the_slsqp_kernel_alone(tmp_path):
    loaded = loaded_by_command(
        ["design", "--preset", "2", "--gamut", "led-triangle", "--starts", "1",
         "--out", str(tmp_path / "d.json")]
    )
    assert "scipy.optimize._slsqplib" in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.special" not in loaded


def test_scipy_minimize_runs_the_loaded_kernel():
    # The loader registers the kernel under its own name, so importing
    # scipy.optimize afterwards binds that module, and SLSQP runs it.
    loaded_after(
        "from ucsk import optimizer; kernel = optimizer._kernel(); "
        "module = sys.modules['scipy.optimize._slsqplib']; "
        "assert 'scipy.optimize' not in sys.modules; "
        "import scipy.optimize; from scipy.optimize import _slsqp_py; "
        "res = scipy.optimize.minimize(lambda x: x @ x, [1.0, 2.0], "
        "method='SLSQP', constraints={'type': 'ineq', 'fun': lambda x: x[0] - 0.5}); "
        "assert res.success; "
        "assert sys.modules['scipy.optimize._slsqplib'] is module; "
        "assert _slsqp_py.slsqp is kernel"
    )


def test_scipy_special_imported_later_binds_the_loaded_ufuncs():
    # The extension stays registered under its name, so the package's
    # own __init__ binds the objects linksim holds, and scipy's other
    # subpackages that import scipy.special still work.
    loaded_after(
        "from ucsk import linksim; "
        "module = sys.modules['scipy.special._ufuncs']; "
        "assert 'scipy.special' not in sys.modules; "
        "import scipy.special, scipy.stats; "
        "assert scipy.special._ufuncs is module; "
        "assert scipy.special.ndtri is linksim.ndtri; "
        "assert scipy.special.erfc is linksim.erfc; "
        "assert abs(scipy.stats.norm.ppf(0.975) - 1.959963984540054) < 1e-12"
    )


def test_ufuncs_of_an_imported_scipy_special_are_the_packages():
    # With the package already imported, linksim imports by name: it
    # looks up no file and never registers a placeholder package.
    loaded_after(
        """
        import scipy.special
        package = sys.modules["scipy.special"]
        from ucsk import _extension
        real, looked_up = _extension.PathFinder, []

        class Finder:
            @staticmethod
            def find_spec(name, path):
                looked_up.append(name)
                return real.find_spec(name, path)

        _extension.PathFinder = Finder
        from ucsk import linksim
        assert looked_up == []
        assert sys.modules["scipy.special"] is package
        assert linksim.erfc is package.erfc and linksim.ndtri is package.ndtri
        """
    )


# The lookup of the module's file finds nothing, or finds a file whose
# load raises.  The load raises after it registered the placeholder
# package, which it records in `seen`.
_FAILED_LOOKUPS = {
    "no-file": """
        class Finder:
            @staticmethod
            def find_spec(name, path):
                return None if name == MODULE else real.find_spec(name, path)
        """,
    "load-raises": """
        class Raising:
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                seen.append(sys.modules[PACKAGE])
                raise ImportError("load failed")

        class Finder:
            @staticmethod
            def find_spec(name, path):
                spec = real.find_spec(name, path)
                if name == MODULE:
                    spec.loader = Raising()
                return spec
        """,
}


@pytest.mark.parametrize("failure", sorted(_FAILED_LOOKUPS))
@pytest.mark.parametrize(
    "module, use",
    [("scipy.optimize._slsqplib",
      "from ucsk import optimizer\n"
      "assert optimizer._kernel() is sys.modules[MODULE].slsqp"),
     ("scipy.special._ufuncs",
      "from ucsk import linksim\n"
      "assert linksim.ndtri is sys.modules[PACKAGE].ndtri"),
     ],
    ids=["kernel", "ufuncs"],
)
def test_extension_that_cannot_load_alone_is_imported_by_name(module, use, failure):
    # Either way the loader leaves the choice to the import system, which
    # runs the package's __init__, and no placeholder stays behind.
    package = module.rpartition(".")[0]
    loads = 1 if failure == "load-raises" else 0
    loaded_after(
        f"MODULE, PACKAGE, seen = {module!r}, {package!r}, []\n"
        "from ucsk import _extension\n"
        "real = _extension.PathFinder\n"
        f"{textwrap.dedent(_FAILED_LOOKUPS[failure])}"
        "_extension.PathFinder = Finder\n"
        f"{use}\n"
        f"assert len(seen) == {loads}\n"
        # The package left in sys.modules is the one whose __init__ ran.
        "assert all(sys.modules[PACKAGE] is not p for p in seen)\n"
        "assert hasattr(sys.modules[PACKAGE], '__all__')\n"
    )


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
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.spatial" not in loaded


def test_rate_loads_the_ufunc_extension_alone(tmp_path):
    loaded = loaded_by_command(
        ["rate", "--scheme", "ook", "--wavelength", "470", "--water", "seawater",
         "--distance", "10", "--snr", "10:10:20", "--samples", "10000",
         "--out", str(tmp_path / "rate.csv")]
    )
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded
    assert "scipy.optimize" not in loaded
