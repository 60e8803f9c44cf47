"""Traced stand-in for `python -m weightscape.cli`.

Usage: python perfbench/cli_child.py TRACE_FILE CLI_ARGS...

Imports the CLI, installs the same span wrappers as an in-process traced
run, runs the command with stdout and exit code unchanged, and writes its
spans to TRACE_FILE when the command has finished.
"""

import sys
from time import perf_counter

import tracing


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import weightscape.cli
    import_s = perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = weightscape.cli.run(argv)
    sys.stdout.flush()
    tracer.dump(trace_file, extra={"cli.import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
