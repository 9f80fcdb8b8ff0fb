"""In-memory spans around the public entry points of each server layer.

Loaded by ``serve.py`` only for a traced run.  :func:`install` wraps the
calls listed in :data:`TARGETS` (and the engine's rendered-path memo
probe) with a recorder that keeps one tuple per call in a list; nothing
is written until :func:`dump` runs at shutdown.  The server's own code
is never edited: wrapping happens from outside, after import and before
``repro.service.__main__.main`` builds anything.

A span is ``(name, start_ns, dur_ns, self_ns, root, items)``:

- ``start_ns`` is ``time.monotonic_ns()`` (CLOCK_MONOTONIC, shared with
  the client process, so the client's timed windows select spans);
- ``self_ns`` is the duration minus the time covered by child spans on
  the same thread (a layer's self time);
- ``root`` numbers the outermost span of the thread's call stack, so the
  spans of one request share it;
- ``items`` is the batch size for calls that take one (lanes per
  ``route_batch``), else 1.
"""

import functools
import importlib
import itertools
import json
import threading
import time

__all__ = ["FIELDS", "TARGETS", "dump", "install"]

#: span name -> (module, attribute path) of the wrapped callable.  Names
#: imported into a consumer module by ``from x import f`` are wrapped
#: where the consumer looks them up.
TARGETS = {
    "http.server": ("repro.service.http", "_ServiceHandler.do_POST"),
    "schema.parse": ("repro.service.http", "parse_impute_payload"),
    "geojson.feature_collection": ("repro.service.http", "feature_collection"),
    "engine.run": ("repro.service.engine", "BatchImputationEngine.run"),
    "budget.compress": ("repro.service.engine", "compress_to_budget"),
    "dispatch.submit": ("repro.service.dispatch", "BatchDispatcher.submit"),
    "registry.get": ("repro.service.registry", "ModelRegistry.get"),
    "registry.refresh": ("repro.service.registry", "ModelRegistry.refresh"),
    "habit.snap": ("repro.core.habit", "HabitImputer.snap_endpoints"),
    "habit.render": ("repro.core.habit", "HabitImputer.render_path"),
    "search.route_batch": ("repro.core.habit", "HabitImputer.route_batch"),
    "graph.from_statistics": ("repro.core.graph", "CellGraph.from_statistics"),
    "model.save": ("repro.core.habit", "HabitImputer.save"),
    "follow.poll": ("repro.ais.reader", "CsvFollower.poll"),
    "segmentation.push": ("repro.core.segmentation", "StreamingSegmenter.push"),
    "annotate.clean": ("repro.service.follow", "clean_messages"),
}

#: Field names of one span tuple, in order.
FIELDS = ("name", "start_ns", "dur_ns", "self_ns", "root", "items")

_SPANS = []
_ROOTS = itertools.count(1)
_LOCAL = threading.local()


def _stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _record(name, fn, sized=False):
    """*fn* wrapped to append one span per call; ``sized`` records the
    length of the method's first argument (a batch) as the item count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        if not stack:
            _LOCAL.root = next(_ROOTS)
        frame = [0]  # nanoseconds covered by child spans
        stack.append(frame)
        started = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.monotonic_ns() - started
            stack.pop()
            if stack:
                stack[-1][0] += dur
            items = len(args[1]) if sized else 1
            _SPANS.append((name, started, dur, dur - frame[0], _LOCAL.root, items))

    return wrapper


def _wrap(module_name, path, name):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    sized = name == "search.route_batch"
    if isinstance(raw, classmethod):
        bound = getattr(owner, attr)
        setattr(owner, attr, staticmethod(_record(name, bound)))
    else:
        setattr(owner, attr, _record(name, raw, sized))


def _memo_probe(get, missing):
    """Count rendered-path memo probes as zero-length hit/miss spans."""

    @functools.wraps(get)
    def wrapper(key):
        entry = get(key)
        tier = "miss" if entry is missing else "hit"
        root = getattr(_LOCAL, "root", 0)
        _SPANS.append((f"engine.render_memo.{tier}", time.monotonic_ns(), 0, 0, root, 1))
        return entry

    return wrapper


def install():
    """Wrap every target; returns after patching (no thread started)."""
    for name, (module_name, path) in TARGETS.items():
        _wrap(module_name, path, name)
    # The engine is built inside main(); catch it on its way out of
    # make_server to wrap its render memo's probe on the instance.
    cli = importlib.import_module("repro.service.__main__")
    engine_module = importlib.import_module("repro.service.engine")
    make_server = cli.make_server

    @functools.wraps(make_server)
    def traced_make_server(*args, **kwargs):
        server = make_server(*args, **kwargs)
        memo = server.engine.render_cache
        if memo is not None:
            memo.get = _memo_probe(memo.get, engine_module._MISSING)
        return server

    cli.make_server = traced_make_server


def dump(path):
    """Write every recorded span to *path* as JSON."""
    spans = list(_SPANS)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": list(FIELDS), "spans": spans}, handle)
