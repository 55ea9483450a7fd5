"""Run the skeinlab CLI with layer spans recorded; used by traced cli_cold runs.

    python traced_cli.py SPAN_FILE SKEINLAB_ARGS...

Times the import of skeinlab, wraps the traced layers, runs the CLI with the
given arguments and writes the spans to SPAN_FILE before exiting with the
CLI's exit code.
"""

import sys
from time import perf_counter

from tracing import Tracer, instrument

t0 = perf_counter()
import skeinlab.cli  # noqa: E402  (the import itself is timed)
t1 = perf_counter()

tracer = Tracer()
tracer.spans.append(["cli.import", t0, t1, -1, None, 0])
instrument(tracer)
code = skeinlab.cli.main(sys.argv[2:])
sys.stdout.flush()
tracer.dump(sys.argv[1])
sys.exit(code)
