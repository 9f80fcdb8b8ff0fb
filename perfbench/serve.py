"""Thin launcher: run the service CLI, optionally with layer spans.

    python perfbench/serve.py [--spans OUT.json] -- <repro.service CLI args>

Everything after ``--`` goes to ``repro.service.__main__.main`` exactly
as ``python -m repro.service`` would receive it.  With ``--spans``, the
entry points in :data:`spans.TARGETS` are wrapped first and every span
is written to ``OUT.json`` once the CLI returns (SIGINT stops the serve
loop; the CLI closes the server, engine and follow daemon on its way
out).  The ``src`` directory next to this one must hold the package.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="write layer spans here at exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    sys.path.insert(0, str(ROOT / "src"))
    if args.spans:
        import spans  # a sibling: the script's directory is on sys.path

        spans.install()
    from repro.service.__main__ import main as cli_main

    try:
        cli_main(cli_args)
    finally:
        if args.spans:
            spans.dump(args.spans)


if __name__ == "__main__":
    main()
