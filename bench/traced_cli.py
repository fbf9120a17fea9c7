"""The nanospin CLI with the benchmark's wrappers installed.

    python bench/traced_cli.py SPANS.npz sweep --config cfg.json

Runs nanospin.cli.main on the arguments after SPANS.npz as one traced
operation and saves its spans there when it returns.
"""

import sys

import nanospin.cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span("op"):
            code = nanospin.cli.main(argv)
    finally:
        tracer.uninstall()
    tracing.save(spans_path, tracer.snapshot())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
