"""Every entry point the repository benchmark wraps still exists.

``perfbench`` times the program from outside by wrapping named
attributes (``module:Class.attribute``) in place; a traced run whose
target has moved fails at daemon start-up, long after the untraced
runs passed.  This resolves each target the way the wrapper does.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench import calibrate, explore, layers

TARGETS = sorted({
    target
    for patches in (layers.LIBRARY_PATCHES, layers.SERVICE_PATCHES,
                    explore.GATE_PATCHES, calibrate.GATE_PATCHES)
    for target, _, _ in patches
})


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_callable(target):
    module_name, _, attribute_path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attribute_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
