"""Contract between the fast-path configuration and perfbench's ablation.

perfbench's ``--ablate`` runs one pass per name in ``FASTPATH_LAYERS``
(``perfbench/run.py``), built as ``replace(FastPathConfig(), **{name:
False})``.  The list still names ``calendar_queue``, whose queue is gone,
so that field must keep accepting ``False`` and nothing else.
"""

import ast
import os
from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.common.fastpath import FastPathConfig

RUN_PY = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "perfbench", "run.py")


def _ablation_layers():
    """``FASTPATH_LAYERS`` as ``perfbench/run.py`` defines it, read
    without importing the benchmark."""
    with open(RUN_PY) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FASTPATH_LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no FASTPATH_LAYERS")


def test_config_keeps_the_benchmark_ablation_buildable():
    with pytest.raises(ConfigError, match=r"FastPathConfig\.calendar_queue"):
        FastPathConfig(calendar_queue=True)
    layers = _ablation_layers()
    assert layers
    for name in layers:
        config = replace(FastPathConfig(), **{name: False})
        assert getattr(config, name) is False
