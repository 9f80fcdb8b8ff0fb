"""Process memory: one C heap for the daemon, the heap trim, where each
runs, and the startup fit served warm."""

import ctypes
import json
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import HabitConfig, HabitImputer
from repro.service import ModelRegistry, make_server, memory
from repro.service.memory import release_heap, resident_bytes, use_one_arena

SRC = Path(__file__).resolve().parent.parent / "src"


def test_release_heap_returns_a_worker_threads_freed_arrays():
    """Arrays of 1-2 MB freed on a worker thread stay resident in its
    arena until the trim, which must give back at least half of them."""
    if memory._libc_function("malloc_trim", ctypes.c_size_t) is None or resident_bytes() is None:
        pytest.skip("needs glibc's malloc_trim and /proc/self/status")
    sizes = [(1 << 20) + (k % 4) * (1 << 18) for k in range(32)]
    freed = sum(sizes[:-1])
    seen = {}

    def churn():
        # Freeing one 8 MB mapping raises glibc's dynamic mmap threshold
        # above it, so the 1-2 MB arrays below come from the arena, as
        # a fit's temporaries do, instead of from mappings of their own.
        np.ones(8 << 20, np.uint8)
        arrays = [np.ones(size, np.uint8) for size in sizes]
        # The last array stays live above the others, so free() cannot
        # hand their pages back by shrinking the arena's top.
        pinned = arrays.pop()
        del arrays
        seen["before"] = resident_bytes()[0]
        seen["released"] = release_heap()
        seen["after"] = resident_bytes()[0]
        del pinned

    worker = threading.Thread(target=churn)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    dropped = seen["before"] - seen["after"]
    assert seen["released"] is True
    assert dropped >= freed // 2, (
        f"trim gave back {dropped / 2**20:.1f} MB of {freed / 2**20:.1f} MB freed"
    )


def test_release_heap_is_a_silent_no_op_without_malloc_trim(monkeypatch):
    class _LibcWithoutTrim:
        pass  # attribute lookups fail, as for a symbol the library lacks

    monkeypatch.setattr(memory.ctypes, "CDLL", lambda name: _LibcWithoutTrim())
    memory._libc_function.cache_clear()
    try:
        assert memory._libc_function("malloc_trim", ctypes.c_size_t) is None
        assert release_heap() is False
    finally:
        monkeypatch.undo()
        memory._libc_function.cache_clear()


def test_use_one_arena_is_a_silent_no_op_without_mallopt(monkeypatch):
    class _LibcWithoutMallopt:
        pass  # attribute lookups fail, as for a symbol the library lacks

    monkeypatch.setattr(memory.ctypes, "CDLL", lambda name: _LibcWithoutMallopt())
    memory._libc_function.cache_clear()
    try:
        assert use_one_arena() is False
    finally:
        monkeypatch.undo()
        memory._libc_function.cache_clear()


# Four threads hold 1-2 MB arrays at once, then the child prints how
# many heaps glibc's malloc_info reports.  argv[1] == "1" calls the
# helper first, as the CLI does before any thread starts.
_ARENA_CHILD = """
import ctypes, sys, threading
import numpy as np
from repro.service.memory import use_one_arena

if sys.argv[1] == "1":
    assert use_one_arena()
barrier = threading.Barrier(4)

def churn():
    np.ones(8 << 20, np.uint8)  # lifts the mmap threshold, as in the trim test
    arrays = [np.ones((1 << 20) + k * (1 << 18), np.uint8) for k in range(4)]
    barrier.wait(timeout=30)  # all four threads hold their arrays at once
    del arrays

threads = [threading.Thread(target=churn) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
    assert not thread.is_alive()
libc = ctypes.CDLL(None)
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.fopen.restype = ctypes.c_void_p
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.malloc_info.restype = ctypes.c_int
libc.fclose.argtypes = [ctypes.c_void_p]
libc.fclose.restype = ctypes.c_int
report = sys.argv[2]
stream = libc.fopen(report.encode(), b"w")
assert stream and libc.malloc_info(0, stream) == 0
libc.fclose(stream)
with open(report) as handle:
    print(handle.read().count("<heap "))
"""


@pytest.mark.parametrize("one_arena", [True, False], ids=["one_arena", "default"])
def test_one_arena_keeps_overlapping_threads_on_one_heap(tmp_path, one_arena):
    libc = ctypes.CDLL(None)
    if not all(hasattr(libc, name) for name in ("mallopt", "malloc_info", "fopen")):
        pytest.skip("needs glibc's mallopt and malloc_info")
    child = subprocess.run(
        [sys.executable, "-c", _ARENA_CHILD, "1" if one_arena else "0",
         str(tmp_path / "malloc_info.xml")],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    heaps = int(child.stdout.split()[-1])
    if one_arena:
        assert heaps == 1
    else:
        assert heaps > 1


def test_resident_bytes_reads_status_and_tolerates_its_absence(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n")
    assert resident_bytes(status) == (1024 * 1024, 2048 * 1024)
    assert resident_bytes(tmp_path / "missing") is None
    status.write_text("Name:\tpython\n")
    assert resident_bytes(status) is None


def test_a_disk_load_or_refresh_never_releases_the_heap(tmp_path, tiny_kiel, monkeypatch):
    """A refresh and a disk load reuse what they free, so neither trims
    the C heap: only the CLI's startup fit does."""
    resolved = []
    monkeypatch.setattr(memory, "_libc_function", lambda name, *_: resolved.append(name))
    config = HabitConfig(resolution=9)
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", HabitImputer(config).fit_from_trips(tiny_kiel.train))
    registry.refresh("KIEL", tiny_kiel.test, config)
    registry.evict_all()
    assert registry.get("KIEL", config)[2] == "load"
    assert resolved == []


class _StoppedServer:
    """Stands in for the HTTP server: the serve loop ends at once."""

    server_address = ("127.0.0.1", 0)
    access_log_file = None

    def serve_forever(self):
        raise KeyboardInterrupt

    def server_close(self):
        pass


@pytest.mark.parametrize("serve", [True, False], ids=["fit_serve", "fit_only"])
def test_cli_trims_once_after_fitting_to_serve(tmp_path, tiny_cache, monkeypatch, serve):
    """The CLI trims once after its --fit loop when it goes on to serve,
    and not at all when it only fits (the process is about to exit)."""
    from repro.service import __main__ as cli

    calls, arenas, registries = [], [], []
    monkeypatch.setattr(cli, "release_heap", lambda: calls.append(1))
    monkeypatch.setattr(cli, "use_one_arena", lambda: arenas.append(1))
    monkeypatch.setattr(
        cli, "make_server", lambda registry, **_: registries.append(registry) or _StoppedServer()
    )
    argv = ["--fit", "KIEL", "--scale", "0.02", "--registry", str(tmp_path / "models"),
            "--data-cache", tiny_cache]
    cli.main(argv + ["--serve"] if serve else argv)
    assert calls == ([1] if serve else [])
    assert arenas == ([1] if serve else [])
    if serve:
        (registry,) = registries
        assert registry.loaded_ids == [ModelRegistry.model_id("KIEL", HabitConfig())]


def test_cli_uses_one_arena_before_the_fit_follow_and_server(tmp_path, monkeypatch):
    """``--serve`` limits the C heap to one arena exactly once, before
    the startup fit, the follow daemon's thread and the HTTP server."""
    from repro.experiments import fit as fit_module
    from repro.service import __main__ as cli
    from repro.service import follow as follow_module

    events = []

    def fit_and_save(dataset, registry, **_):
        events.append("fit")
        return SimpleNamespace(model_id=dataset, path="-", storage_bytes=0,
                               train_rows=0, fit_seconds=0.0)

    class _Follow:
        def __init__(self, *args, **kwargs):
            events.append("follow")

        def start(self):
            return self

        def stop(self):
            pass

    monkeypatch.setattr(cli, "use_one_arena", lambda: events.append("arena"))
    monkeypatch.setattr(cli, "release_heap", lambda: events.append("trim"))
    monkeypatch.setattr(fit_module, "fit_and_save", fit_and_save)
    monkeypatch.setattr(follow_module, "FollowDaemon", _Follow)
    monkeypatch.setattr(
        cli, "make_server", lambda registry, **_: events.append("server") or _StoppedServer()
    )
    cli.main(["--fit", "KIEL", "--serve", "--follow", str(tmp_path / "live.csv"),
              "--registry", str(tmp_path / "models")])
    assert events == ["arena", "fit", "trim", "follow", "server"]


def test_metrics_scrape_sets_the_resident_memory_gauges(tmp_path, service_model):
    if resident_bytes() is None:
        pytest.skip("needs /proc/self/status")
    registry = ModelRegistry(tmp_path / "models")
    registry.publish("KIEL", service_model)
    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=10) as reply:
            scrape = reply.read().decode()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    values = dict(re.findall(r"^(repro_process_\w+) (\S+)$", scrape, re.M))
    rss = float(values["repro_process_resident_bytes"])
    peak = float(values["repro_process_peak_resident_bytes"])
    assert 0 < rss <= peak


def _counter(scrape, name, **labels):
    """A counter's value in a Prometheus scrape (0 when the series is absent)."""
    label_text = ",".join(f'{k}="{v}"' for k, v in labels.items())
    match = re.search(rf"^{name}\{{{label_text}\}} (\S+)$", scrape, re.M)
    return float(match.group(1)) if match else 0.0


def test_cli_fit_then_serve_answers_its_first_request_warm(tmp_path, tiny_cache, tiny_kiel):
    """``--fit KIEL --serve`` publishes its fit into the registry that
    serves: the first request is a registry hit, nothing is read back
    from disk, and the served path equals the offline model's."""
    models = tmp_path / "models"
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.service",
            "--fit", "KIEL", "--scale", "0.02", "--serve", "--port", "0",
            "--registry", str(models), "--data-cache", tiny_cache,
        ],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # A child that never comes up is killed, which ends the read below.
    watchdog = threading.Timer(120.0, process.kill)
    watchdog.start()
    try:
        base = None
        for line in process.stdout:
            found = re.search(r"serving on (http://\S+)", line)
            if found:
                base = found.group(1)
                break
        assert base is not None, process.stderr.read()
        gap = tiny_kiel.gaps(3600.0)[0]
        request = urllib.request.Request(
            base + "/impute",
            data=json.dumps(
                {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as reply:
            body = json.loads(reply.read())
        with urllib.request.urlopen(base + "/metrics", timeout=10) as reply:
            scrape = reply.read().decode()
    finally:
        watchdog.cancel()
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()

    provenance = body["results"][0]["provenance"]
    assert provenance["cache"] == "hit"
    assert _counter(scrape, "repro_registry_resolutions_total", tier="load") == 0
    assert _counter(scrape, "repro_registry_resolutions_total", tier="hit") == 1
    offline = HabitImputer.load(models / f"{provenance['model_id']}.npz").impute(
        gap.start, gap.end
    )
    coordinates = body["geojson"]["features"][0]["geometry"]["coordinates"]
    assert coordinates == [[lng, lat] for lat, lng in zip(offline.lats, offline.lngs)]
