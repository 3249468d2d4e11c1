"""No reserved knobs: every field of the configuration and bundle dataclasses
is read, as an attribute, somewhere in the package, and every stage's
default betas are looked up by its key."""

import ast
import dataclasses
from pathlib import Path

import pytest

import voxlight
from voxlight.metrics import DEFAULT_BETAS, StageLossBundle
from voxlight.pipeline import DemoConfig
from voxlight.scene import SceneSpec
from voxlight.sg import SGFitOptions
from voxlight.volume import VSGFitOptions


def sources():
    return [ast.parse(path.read_text())
            for path in Path(voxlight.__file__).parent.glob("*.py")]


def attributes_read() -> set[str]:
    """Names read as ``<expr>.<name>`` in the package's sources, leaving out
    ``self.<name>``: a field that only its own class reads (say, to check
    it) is read by nothing that it would configure."""
    read = set()
    for tree in sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("cls", [DemoConfig, SceneSpec, SGFitOptions, VSGFitOptions,
                                 StageLossBundle], ids=lambda c: c.__name__)
def test_every_field_is_read(cls):
    read = attributes_read()
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{cls.__name__} fields that nothing reads: {unread}"


def test_every_default_beta_is_looked_up():
    # DEFAULT_BETAS["<stage>"] with a literal key, in the package's sources
    looked_up = {node.slice.value for tree in sources() for node in ast.walk(tree)
                 if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                 and node.value.id == "DEFAULT_BETAS" and isinstance(node.slice, ast.Constant)}
    unread = sorted(set(DEFAULT_BETAS) - looked_up)
    assert not unread, f"DEFAULT_BETAS entries that nothing looks up: {unread}"
