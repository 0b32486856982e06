"""README.md names only code that exists."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import gramalign

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(gramalign.__path__)}


def test_backticked_module_attributes_exist():
    """Each `module.name` (or `gramalign.module.name`) of a gramalign module resolves."""
    missing = []
    for module, dotted in re.findall(r"`(?:gramalign\.)?([a-z_]+)\.([A-Za-z_][\w.]*)`",
                                     README.read_text()):
        if module not in MODULES:
            continue
        try:
            functools.reduce(getattr, dotted.split("."),
                             importlib.import_module(f"gramalign.{module}"))
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert not missing, f"README.md names what does not exist: {missing}"
