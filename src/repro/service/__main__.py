"""CLI daemon: ``python -m repro.service``.

Fit models into a registry directory, serve them over HTTP, or both --
and optionally keep a served model live-refreshed from a growing dump::

    python -m repro.service --fit DAN --fit KIEL      # populate the registry
    python -m repro.service --serve --port 8080       # serve what's there
    python -m repro.service --fit DAN --serve         # one-shot demo

    # live refresh: tail a growing dump, refresh DAN's model on cadence
    python -m repro.service --fit DAN --serve --follow dumps/dan-live.csv

    curl -s localhost:8080/impute -d \\
      '{"dataset": "DAN", "start": [55.7, 11.9], "end": [55.9, 11.8]}'
    curl -s localhost:8080/models     # revision / last_refresh feed

Every flag is documented in ``--help`` and, with operational context, in
``docs/OPERATIONS.md``.
"""

import argparse

from repro.ais.reader import DEFAULT_CHUNK_ROWS
from repro.core import HabitConfig
from repro.core.graph import PROJECTIONS
from repro.service.http import make_server
from repro.service.memory import release_heap, use_one_arena
from repro.service.registry import ModelRegistry

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Fit HABIT models into a registry, serve them over HTTP, and/or "
            "live-refresh a served model from a growing AIS dump."
        ),
    )
    parser.add_argument(
        "--fit",
        action="append",
        default=[],
        metavar="DATASET",
        help="fit-and-save this dataset (repeatable; DAN, KIEL, SAR)",
    )
    parser.add_argument("--serve", action="store_true", help="start the HTTP daemon")
    parser.add_argument(
        "--registry",
        default=".cache/repro/models",
        help="model registry directory (default: %(default)s)",
    )
    parser.add_argument(
        "--data-cache",
        default=".cache/repro",
        help="prepared-dataset cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="dataset scale for fitting (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed for fitting")
    parser.add_argument("--host", default="127.0.0.1", help="bind address for --serve")
    parser.add_argument("--port", type=int, default=8080, help="bind port for --serve")
    parser.add_argument(
        "--capacity", type=int, default=8, help="LRU cache size in models"
    )
    parser.add_argument(
        "--metrics",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "collect per-stage metrics and serve them at GET /metrics "
            "(Prometheus text; ?format=json for JSON); --no-metrics disables "
            "collection process-wide and 404s the route"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit one JSON object per served request (route, status, "
            "latency_ms, batch size, request ids) to stderr or --log-file; "
            "off by default"
        ),
    )
    parser.add_argument(
        "--log-file",
        metavar="PATH",
        default=None,
        help="append the --log-json access log to this file instead of stderr",
    )
    follow = parser.add_argument_group("live refresh (requires --serve)")
    follow.add_argument(
        "--follow",
        metavar="DUMP_CSV",
        default=None,
        help=(
            "tail this growing AIS dump and fold newly closed trips into the "
            "--follow-dataset model on a cadence (revision visible at /models)"
        ),
    )
    follow.add_argument(
        "--follow-dataset",
        metavar="DATASET",
        default=None,
        help=(
            "model the follow loop refreshes (default: the single --fit dataset "
            "when exactly one was given)"
        ),
    )
    follow.add_argument(
        "--refresh-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="minimum seconds between model refreshes (default: %(default)s)",
    )
    follow.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between dump polls (default: %(default)s)",
    )
    follow.add_argument(
        "--chunk-rows",
        type=int,
        default=DEFAULT_CHUNK_ROWS,
        metavar="ROWS",
        help="max source rows parsed per chunk (default: %(default)s)",
    )
    follow.add_argument(
        "--buffer-budget",
        type=int,
        default=None,
        metavar="ROWS",
        help=(
            "cap each vessel's open-trip buffer at this many rows, "
            "compressing longer open trips by SED rank (bounded ingest "
            "memory per vessel; default: unbounded)"
        ),
    )
    default = HabitConfig()
    model = parser.add_argument_group("model config")
    model.add_argument(
        "--resolution", type=int, default=default.resolution, help="hex grid resolution"
    )
    model.add_argument(
        "--projection",
        choices=PROJECTIONS,
        default=default.projection,
        help="node placement: cell centres or per-cell mean positions",
    )
    return parser


def _config_from_args(args):
    return HabitConfig(resolution=args.resolution, projection=args.projection)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.serve:
        # Before the fit or any thread: glibc would give the follow
        # thread and each handler thread an arena of its own, each
        # keeping its own freed temporaries resident.
        use_one_arena()
    if not args.fit and not args.serve:
        parser.error("nothing to do: pass --fit DATASET and/or --serve")
    if args.follow and not args.serve:
        parser.error("--follow requires --serve (the refresh loop rides the daemon)")
    follow_dataset = args.follow_dataset
    if args.follow and follow_dataset is None:
        if len(args.fit) == 1:
            follow_dataset = args.fit[0]
        else:
            parser.error(
                "--follow needs --follow-dataset (or exactly one --fit DATASET)"
            )
    if args.log_file and not args.log_json:
        parser.error("--log-file only applies with --log-json")
    if args.buffer_budget is not None:
        if not args.follow:
            parser.error("--buffer-budget only applies with --follow")
        if args.buffer_budget < 2:
            parser.error("--buffer-budget must be >= 2")
    if not args.metrics:
        # Process-wide switch: every instrumented layer's observations
        # become cheap no-ops, not just the /metrics route.
        from repro.obs import METRICS

        METRICS.set_enabled(False)
    config = _config_from_args(args)

    # One registry: the models fitted below are published into the one
    # that serves, so --fit ... --serve answers its first request warm.
    registry = ModelRegistry(args.registry, capacity=args.capacity)
    if args.fit:
        # Imported lazily: --serve alone must not pay for the experiments layer.
        from repro.experiments.fit import fit_and_save

        for dataset in args.fit:
            report = fit_and_save(
                dataset,
                registry,
                config=config,
                scale=args.scale,
                seed=args.seed,
                cache_dir=args.data_cache,
            )
            print(
                f"fitted {report.model_id} -> {report.path} "
                f"({report.storage_bytes} bytes, {report.train_rows} train rows, "
                f"{report.fit_seconds:.2f}s)"
            )
        if args.serve:
            # The fits' datasets and build temporaries are freed, but the
            # C heap keeps their pages; serving never reuses them.
            release_heap()

    if args.serve:
        follow = None
        if args.follow:
            from repro.service.follow import FollowDaemon

            follow = FollowDaemon(
                registry,
                args.follow,
                follow_dataset,
                config=config,
                refresh_interval_s=args.refresh_interval,
                poll_interval_s=args.poll_interval,
                chunk_rows=args.chunk_rows,
                buffer_budget=args.buffer_budget,
            ).start()
            print(
                f"following {args.follow} -> {follow_dataset} "
                f"(refresh every {args.refresh_interval:g}s)"
            )
        server = make_server(
            registry,
            host=args.host,
            port=args.port,
            follow=follow,
            log_json=args.log_json,
            log_file=args.log_file,
        )
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port} (registry: {args.registry})")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            if follow is not None:
                follow.stop()
            server.server_close()
            if server.access_log_file is not None:
                server.access_log_file.close()


if __name__ == "__main__":
    main()
