"""Run ``repro serve`` with the layer wrappers installed (traced serve_mix).

Usage: ``python serve_launcher.py SPANS_OUT serve [serve options...]``

Installs the wrappers of ``tracing.py`` in this process, hands the rest
of the command line to ``repro.cli.main``, and writes the recorded
spans to ``SPANS_OUT`` once the server has shut down.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_out, serve_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.propagate_context_to_threads()
    from repro.cli import main as repro_main

    code = repro_main(serve_argv)
    tracing.write_spans(spans_out, tracer.spans, tracer.counts, tracer.tags)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
