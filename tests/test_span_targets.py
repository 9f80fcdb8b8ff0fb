"""Every callable the socket benchmark's traced runs wrap still resolves.

``perfbench/spans.py`` wraps server entry points by name from outside
the server (its ``TARGETS`` table), plus the engine's answer-cache probe
``render_cache.get`` with ``engine._MISSING`` as its miss sentinel.  A
rename would otherwise surface only in a traced benchmark run.  The
table is read from the file's source; nothing under ``perfbench/`` is
imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.service import BatchImputationEngine, ModelRegistry
from repro.service import engine as engine_module

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    """The ``TARGETS`` literal of ``perfbench/spans.py``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {SPANS}")


TARGETS = _targets()


def test_span_targets_table_is_not_empty():
    assert len(TARGETS) >= 10


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_span_target_resolves(name):
    module_name, path = TARGETS[name]
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), name


def test_span_answer_cache_probe_resolves(tmp_path):
    """The traced server's engine exposes ``render_cache.get``, which
    returns ``engine._MISSING`` for a key it does not hold."""
    cli = importlib.import_module("repro.service.__main__")
    assert callable(cli.make_server)
    engine = BatchImputationEngine(ModelRegistry(tmp_path / "models"))
    assert engine.render_cache.get((0, (0.0, 0.0), (0.0, 0.0))) is engine_module._MISSING
