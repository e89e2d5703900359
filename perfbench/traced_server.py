"""``python -m repro.serve`` with the layer wrappers installed.

    python perfbench/traced_server.py SPANS.json [repro.serve flags...]

Installs :func:`perfbench.tracing.install` in this process, runs the
unchanged ``repro.serve`` entry point, and writes the recorded spans to
``SPANS.json`` when the server stops (SIGINT).
"""

import os
import sys

sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

from perfbench import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    from repro import serve

    try:
        return serve.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
