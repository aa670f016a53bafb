"""``python -m riot_ray.job`` with the benchmark's query-side timing
wrappers installed; the spans are written to a JSON file when the server
stops.

    python -m perfbench.serve_traced SPANS.json serve --index ... --port 0
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import Tracer, install_http, install_query


def main(argv: list) -> int:
    spans_path, job_argv = argv[0], argv[1:]
    tracer = Tracer()
    install_query(tracer)
    install_http(tracer)
    from riot_ray.job import main as job_main

    try:
        return job_main(job_argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
