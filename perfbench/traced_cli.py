"""One traced `feident` CLI invocation, as a fresh process:

    PYTHONPATH=src python3 perfbench/traced_cli.py STATS.json ARG...

It installs the tracer before the first call into feident, runs
`feident.cli.run(ARG...)` (so output and exit status are the CLI's own), and
writes the aggregated spans to STATS.json on the way out.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import feident.cli

    code = feident.cli.run(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
