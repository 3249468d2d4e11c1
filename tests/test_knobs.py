"""No reserved knobs: every field of the configuration and bundle dataclasses
is read, as an attribute, somewhere in the package."""

import ast
import dataclasses
from pathlib import Path

import pytest

import voxlight
from voxlight.metrics import StageLossBundle
from voxlight.pipeline import DemoConfig
from voxlight.scene import SceneSpec
from voxlight.sg import SGFitOptions
from voxlight.volume import VSGFitOptions


def attributes_read() -> set[str]:
    """Names read as ``<expr>.<name>`` in the package's sources, leaving out
    ``self.<name>``: a field that only its own class reads (say, to check
    it) is read by nothing that it would configure."""
    read = set()
    for path in Path(voxlight.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
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
