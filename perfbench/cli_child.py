"""`python -m bnseries.cli` with spans recorded, for the traced `cli` pass.

usage: cli_child.py PREFIX CLI-ARGS...

Runs bnseries.cli.main(CLI-ARGS) inside one top-level span, exits with its
code, and writes PREFIX.spans (all spans) and PREFIX.json (per-layer totals).
"""

import json
import sys

import bnseries.cli
import spans


def main():
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.request = 0
    try:
        code = tracer.call("cli.main", "cli", bnseries.cli.main, argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.write(prefix + ".spans")
        with open(prefix + ".json", "w") as f:
            json.dump(tracer.raw(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
