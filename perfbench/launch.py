"""Run the modelspace CLI in this process with layer tracing on.

    python perfbench/launch.py <trace.json> <modelspace arguments...>

The traced cli-cold pass starts one such process per operation in place
of ``python -m modelspace.cli``; the span ``cli.main`` is the time inside
``cli.main`` after the imports.  The trace is written at exit.
"""

import json
import sys

from modelspace import cli
from tracer import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("cli.main"):
            return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
