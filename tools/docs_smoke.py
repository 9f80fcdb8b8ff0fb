#!/usr/bin/env python3
"""Run the README's quickstart and live-refresh stories as a smoke test.

First a static check: the backticked ``--flag``s in the
``docs/OPERATIONS.md`` "CLI flag reference" table must equal the
options of the ``python -m repro.service`` argument parser, so a flag
cannot be deleted while still documented (or added undocumented), and
every other backticked ``--flag`` in that file (inline code or fenced
block) must be a parser option too, unless it is on the short
allow-list of non-CLI flags (:data:`NON_CLI_FLAGS`) -- so prose cannot
keep recommending a flag that is gone.
Then two stages, both against temp directories (nothing lands in the
repo):

1. **Quickstart** -- extracts the first ``python`` code block under the
   README's "## Quickstart" heading and ``exec``s it verbatim, so the
   snippet users copy-paste is guaranteed runnable.
2. **Live refresh** -- drives the README's live-refresh story through
   the public API at test scale: fit a model into a registry, start a
   :class:`repro.service.FollowDaemon` plus HTTP server over a growing
   dump, append rows, and wait for the ``/models`` revision to bump.
   Then a ``POST /impute`` exercises the serving path and ``GET
   /metrics`` is scraped: every ``repro_*`` metric named in the
   ``docs/OPERATIONS.md`` Monitoring catalogue must appear in the
   scrape, so the documented catalogue cannot drift from the code.
   Pass ``--models-feed FILE`` / ``--metrics-scrape FILE`` to save the
   final ``/models`` payload and the raw Prometheus scrape (CI uploads
   both as artifacts).

Usage::

    python tools/docs_smoke.py [--models-feed models_feed.json]
                               [--metrics-scrape metrics_scrape.txt]
"""

import argparse
import json
import os
import re
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


#: Backticked flags OPERATIONS.md may name that belong to other tools.
NON_CLI_FLAGS = frozenset({"--benchmark-disable"})

_FLAG = r"(?<![\w-])(--[a-z][a-z0-9-]*)"


def check_flag_table():
    """The OPERATIONS.md flag table documents exactly the CLI's options,
    and no backticked flag elsewhere in the file names a missing one."""
    from repro.service.__main__ import _build_parser

    ops = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    accepted = {
        option
        for action in _build_parser()._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    fences = re.findall(r"```.*?```", ops, flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", ops, flags=re.DOTALL))
    mentioned = {flag for text in fences + spans for flag in re.findall(_FLAG, text)}
    unknown = sorted(mentioned - accepted - NON_CLI_FLAGS)
    if unknown:
        raise SystemExit(
            f"docs/OPERATIONS.md names flags the CLI parser does not accept: {unknown}"
        )
    if "## CLI flag reference" not in ops:
        raise SystemExit("docs/OPERATIONS.md: no '## CLI flag reference' section")
    section = ops.split("## CLI flag reference", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `--"):
            first_cell = line.split("|")[1]
            documented.update(re.findall(r"`(--[a-z][a-z0-9-]*)", first_cell))
    parser_flags = accepted - {"--help"}
    stale = sorted(documented - parser_flags)
    undocumented = sorted(parser_flags - documented)
    if stale or undocumented:
        raise SystemExit(
            "docs/OPERATIONS.md flag table drifted from the CLI parser: "
            f"documented but not accepted {stale}, accepted but not "
            f"documented {undocumented}"
        )
    print(f"-- flag table: all {len(parser_flags)} CLI options documented --")


def run_quickstart(workdir):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL)
    if match is None:
        raise SystemExit("README.md: no python code block under '## Quickstart'")
    snippet = match.group(1)
    os.chdir(workdir)  # the snippet writes its dataset cache to ./.cache
    print("-- quickstart snippet --")
    exec(compile(snippet, "README.md#quickstart", "exec"), {"__name__": "__main__"})


def _get_json(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def _get_text(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.read().decode("utf-8")


def _post_json(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def documented_metrics():
    """Every ``repro_*`` metric named in the OPERATIONS.md Monitoring section.

    The section must also state its own size ("catalogue covers **N**
    series"), and N must equal the number of distinct metric names found
    -- so a new metric cannot land half-documented (named in a playbook
    but missing from the catalogue table, or added to the code with the
    count left stale).
    """
    ops = (REPO / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    if "## 4. Monitoring" not in ops:
        raise SystemExit("docs/OPERATIONS.md: no '## 4. Monitoring' section")
    section = ops.split("## 4. Monitoring", 1)[1].split("\n## ", 1)[0]
    names = sorted(set(re.findall(r"\brepro_[a-z_]+", section)))
    if len(names) < 10:
        raise SystemExit(
            f"docs/OPERATIONS.md: Monitoring catalogue looks gutted ({names})"
        )
    declared = re.search(r"catalogue covers \*\*(\d+)\*\* series", section)
    if declared is None:
        raise SystemExit(
            "docs/OPERATIONS.md: Monitoring section must declare its size "
            "('catalogue covers **N** series')"
        )
    if int(declared.group(1)) != len(names):
        raise SystemExit(
            f"docs/OPERATIONS.md: Monitoring section declares "
            f"{declared.group(1)} series but names {len(names)} distinct "
            f"repro_* metrics -- update the count alongside the catalogue"
        )
    return names


def check_metrics_scrape(base, data, scrape_path):
    """POST an impute batch, scrape /metrics, verify the documented catalogue."""
    print("-- metrics scrape --")
    gap = data.gaps(3600.0)[0]
    reply = _post_json(
        base,
        "/impute",
        {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
    )
    assert reply["count"] == 1, reply
    scrape = _get_text(base, "/metrics")
    missing = [name for name in documented_metrics() if name not in scrape]
    if missing:
        raise SystemExit(
            "documented in docs/OPERATIONS.md but absent from /metrics: "
            + ", ".join(missing)
        )
    samples = sum(1 for line in scrape.splitlines() if not line.startswith("#"))
    print(
        f"scrape: {samples} samples, all {len(documented_metrics())} "
        f"documented metrics present"
    )
    if scrape_path:
        scrape_path.write_text(scrape)
        print(f"wrote /metrics scrape to {scrape_path}")


def run_live_refresh(workdir, feed_path, scrape_path):
    from repro.core import HabitConfig, HabitImputer
    from repro.experiments import common
    from repro.service import FollowDaemon, ModelRegistry, make_server

    print("-- live refresh --")
    config = HabitConfig(resolution=9)
    data = common.prepare("KIEL", scale=0.02, cache_dir=str(workdir / "data"))
    registry = ModelRegistry(workdir / "models")
    registry.publish("KIEL", HabitImputer(config).fit_from_trips(data.train))

    dump = workdir / "live.csv"
    dump.write_text("vessel_id,t,lat,lon,sog,cog,vessel_type\n")
    daemon = FollowDaemon(
        registry, dump, "KIEL", config=config,
        refresh_interval_s=0.1, poll_interval_s=0.05,
    ).start()
    server = make_server(registry, port=0, follow=daemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://{}:{}".format(*server.server_address[:2])
    try:
        (entry,) = _get_json(base, "/models")["models"]
        assert entry["revision"] == 1, entry
        with open(dump, "a") as handle:
            t0 = 1_000_000
            for i in range(20):
                handle.write(f"901,{t0 + 30 * i},{54.4 + 0.001 * i:.6f},{10.3 + 0.001 * i:.6f},8.0,45.0,cargo\n")
            handle.write(f"901,{t0 + 9000},54.4,10.3,8.0,45.0,cargo\n")
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            (entry,) = _get_json(base, "/models")["models"]
            if (entry["revision"] or 0) >= 2:
                break
            time.sleep(0.1)
        else:
            raise SystemExit(f"revision never bumped; last /models entry: {entry}")
        print(
            f"revision {entry['revision']}, rows_ingested {entry['rows_ingested']}, "
            f"follow status: {daemon.status()}"
        )
        if feed_path:
            feed_path.write_text(json.dumps(_get_json(base, "/models"), indent=2))
            print(f"wrote /models feed to {feed_path}")
        check_metrics_scrape(base, data, scrape_path)
    finally:
        daemon.stop()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models-feed",
        type=Path,
        default=None,
        help="write the final /models payload to this file",
    )
    parser.add_argument(
        "--metrics-scrape",
        type=Path,
        default=None,
        help="write the raw /metrics Prometheus scrape to this file",
    )
    args = parser.parse_args()
    feed_path = args.models_feed.resolve() if args.models_feed else None
    scrape_path = args.metrics_scrape.resolve() if args.metrics_scrape else None
    check_flag_table()
    with tempfile.TemporaryDirectory(prefix="docs-smoke-") as tmp:
        workdir = Path(tmp)
        run_quickstart(workdir)
        run_live_refresh(workdir, feed_path, scrape_path)
    print("docs smoke: OK")


if __name__ == "__main__":
    main()
