"""One compiled extension of a scipy subpackage, without the subpackage.

Importing ``scipy.special._ufuncs`` or ``scipy.optimize._slsqplib`` by
name first runs its package's ``__init__``, which loads the whole
subpackage and what it imports.  ``load_extension`` loads the one file
instead.  The import system's own rule finds it:
``PathFinder.find_spec`` of the package in its parent's directory, then
of the module in the package's directory.  So the ``.pyi`` and ``.pyx``
files that scipy ships beside an extension are never candidates.

An extension's init may import sibling extensions by their full names
(``scipy.special._ufuncs`` imports ``_ufuncs_cxx``, ``_special_ufuncs``,
``_gufuncs`` and ``_ellip_harm_2``).  So while the file loads,
``sys.modules`` holds a placeholder for the package: a module made from
the package's spec whose ``__init__`` never runs.  The siblings load
under it, and a ``finally`` removes it.  The loaded modules stay in
``sys.modules`` under their names, so a later import by name, the
package's own included, binds those same objects.  The package imported
later has no attributes for the siblings that loaded under the
placeholder (``scipy.special._ufuncs_cxx``, say); every name its
``__init__`` binds works.

When the module or its package is already in ``sys.modules``, when no
file is found, or when loading it raises, the module is imported by name
as the import system resolves it.  That is what the package runs itself,
so it is slower but never wrong.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from importlib.machinery import PathFinder
from types import ModuleType


def load_extension(name: str) -> ModuleType:
    """The module ``name`` (``scipy.<subpackage>.<module>``), loaded from
    its one file when its package is not imported yet; an ImportError
    when the import by name fails."""
    package = name.rpartition(".")[0]
    if name not in sys.modules and package not in sys.modules:
        try:
            _load_alone(name, package)
        except Exception:
            # The import by name below either succeeds or raises the
            # error the package itself would.
            pass
    return importlib.import_module(name)


def _load_alone(name: str, package: str) -> None:
    parent = importlib.import_module(package.rpartition(".")[0])
    package_spec = PathFinder.find_spec(package, parent.__path__)
    if package_spec is None or not package_spec.submodule_search_locations:
        return
    spec = PathFinder.find_spec(name, package_spec.submodule_search_locations)
    if spec is None:
        return
    placeholder = importlib.util.module_from_spec(package_spec)
    sys.modules[package] = placeholder
    loaded = False
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        loaded = True
    finally:
        if sys.modules.get(package) is placeholder:
            del sys.modules[package]
        if not loaded:
            sys.modules.pop(name, None)
