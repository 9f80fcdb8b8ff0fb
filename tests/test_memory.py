"""Memory release: the heap trim, where it runs, and the startup fit served warm."""

import json
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core import HabitConfig, HabitImputer
from repro.service import ModelRegistry, make_server, memory, registry as registry_module
from repro.service.memory import release_heap, resident_bytes

SRC = Path(__file__).resolve().parent.parent / "src"


def test_release_heap_returns_a_worker_threads_freed_arrays():
    """Arrays of 1-2 MB freed on a worker thread stay resident in its
    arena until the trim, which must give back at least half of them."""
    if memory._malloc_trim() is None or resident_bytes() is None:
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
    memory._malloc_trim.cache_clear()
    try:
        assert memory._malloc_trim() is None
        assert release_heap() is False
    finally:
        monkeypatch.undo()
        memory._malloc_trim.cache_clear()


def test_resident_bytes_reads_status_and_tolerates_its_absence(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n")
    assert resident_bytes(status) == (1024 * 1024, 2048 * 1024)
    assert resident_bytes(tmp_path / "missing") is None
    status.write_text("Name:\tpython\n")
    assert resident_bytes(status) is None


def test_only_a_fit_on_miss_releases_the_heap(tmp_path, tiny_kiel, monkeypatch):
    """One trim after a fit-on-miss; a refresh and a disk load reuse
    what they free, so they must not trim."""
    calls = []
    monkeypatch.setattr(registry_module, "release_heap", lambda: calls.append(1))
    config = HabitConfig(resolution=9, tolerance_m=100.0)

    def fitter(dataset, config):
        return HabitImputer(config).fit_from_trips(tiny_kiel.train)

    registry = ModelRegistry(tmp_path / "models", fitter=fitter)
    assert registry.get("KIEL", config)[2] == "fit"
    assert calls == [1]
    assert registry.get("KIEL", config)[2] == "hit"
    registry.refresh("KIEL", tiny_kiel.test, config)
    registry.evict_all()
    assert registry.get("KIEL", config)[2] == "load"
    assert calls == [1]


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

    calls, registries = [], []
    monkeypatch.setattr(cli, "release_heap", lambda: calls.append(1))
    monkeypatch.setattr(
        cli, "make_server", lambda registry, **_: registries.append(registry) or _StoppedServer()
    )
    argv = ["--fit", "KIEL", "--scale", "0.02", "--registry", str(tmp_path / "models"),
            "--data-cache", tiny_cache]
    cli.main(argv + ["--serve"] if serve else argv)
    assert calls == ([1] if serve else [])
    if serve:
        (registry,) = registries
        assert registry.loaded_ids == [ModelRegistry.model_id("KIEL", HabitConfig())]


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
