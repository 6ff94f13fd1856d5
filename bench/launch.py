"""Run the adequiver command line with the benchmark's tracer installed.

    python bench/launch.py TRACE_OUT ARGS...

Behaves like `python -m adequiver ARGS...` (same output, same exit
code), and also writes TRACE_OUT, a JSON object with the import time of
`adequiver.cli`, the time the tracer took to install, the duration of the
`cli.main` span and the folded spans and counters of the run.  The
package must be importable (the benchmark sets PYTHONPATH to src/).
"""

import json
import sys
import time

CHILD_KEPT_SPANS = 20_000


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import adequiver.cli
    import_s = time.perf_counter() - start

    import tracing
    start = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    install_s = time.perf_counter() - start

    code = adequiver.cli.main(argv)
    main_s = sum(end - start for _, _, name, start, end in tracer.spans if name == "cli.main")
    tracer.finish_op()
    summary = tracer.summary()
    summary["spans"] = summary["spans"][:CHILD_KEPT_SPANS]
    summary.update(import_s=import_s, install_s=install_s, main_s=main_s)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
