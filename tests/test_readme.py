"""The README's list of exports outside the demo and the CLI names only
what the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import voxlight

README = Path(__file__).resolve().parent.parent / "README.md"


def exports_section() -> str:
    text = README.read_text()
    start = text.index("## Exports outside the demo and the CLI")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def resolves(name: str) -> bool:
    """Whether the dotted ``name`` is an attribute of ``voxlight`` or of one
    of its submodules."""
    modules = [voxlight] + [importlib.import_module(f"voxlight.{m.name}")
                            for m in pkgutil.iter_modules(voxlight.__path__)]
    for module in modules:
        obj, found = module, True
        for part in name.split("."):
            if not hasattr(obj, part):
                found = False
                break
            obj = getattr(obj, part)
        if found:
            return True
    return False


def test_every_listed_export_exists():
    names = re.findall(r"`([^`]+)`", exports_section())
    assert len(names) >= 20
    missing = [n for n in names if not resolves(n)]
    assert not missing, f"README lists names the package does not have: {missing}"


def test_a_removed_name_is_caught():
    assert not resolves("no_such_function")
    assert resolves("Frame.from_normal") and resolves("_shadow_ratios")
