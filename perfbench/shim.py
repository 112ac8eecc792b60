"""Traced logcharts command line: ``shim.py STATS_PATH ARGS...``.

Installs the same span wrappers as the in-process traced run, calls
``logcharts.cli.main(ARGS)``, writes the aggregated span counts to
STATS_PATH as JSON and exits with main's exit code.  The untraced run
starts ``python -m logcharts.cli`` instead.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from logcharts import cli

    trace = tracing.Tracer()
    trace.install()
    trace.begin_op(0)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code
    finally:
        trace.end_op()
        trace.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(trace.stats(), handle)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
