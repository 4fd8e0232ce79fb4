"""Launch ``repro serve`` (default config, ephemeral port) with span wrappers.

The wrappers are installed before the server is built; ``POST /shutdown``
ends ``serve_forever``, after which the spans and counters are written to
``--spans``.  Untraced runs use ``python -m repro serve`` itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, install  # noqa: E402


def main() -> int:
    """Serve until ``POST /shutdown``, then write the trace."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, required=True, help="trace output file")
    args = parser.parse_args()

    tracer = Tracer()
    installation = install(tracer)
    from repro.serve.server import ServeConfig, make_server

    server = make_server(ServeConfig(port=0))
    print(f"traced repro experiment service on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.close()
        installation.uninstall()
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
