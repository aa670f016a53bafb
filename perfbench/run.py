"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,serve,update} --seed N \\
        --seconds S --trace {0,1}

Prints progress on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits
non-zero without a result when the program under test is not importable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# import the benchmark as the package ``perfbench`` (Ray workers unpickle
# its stage wrappers by that name), never as top-level modules
sys.path[:] = [_ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != _HERE]

WORKLOADS = ("build", "serve", "update")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import riot_ray
    except ImportError as e:
        print(f"perfbench: the program under test is missing: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(riot_ray.__file__))) != _ROOT:
        print(f"perfbench: riot_ray imported from outside {_ROOT}", file=sys.stderr)
        return 2

    from perfbench import common

    mod = __import__(f"perfbench.wl_{args.workload}", fromlist=["run"])
    sess = common.Session()
    try:
        correct, attempted, failed, metrics = mod.run(sess, args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        sess.close()
    want = manifest_metrics("per_layer" if args.trace else "end_to_end")
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        print(f"perfbench: metrics {sorted(set(got.items()) ^ set(want.items()))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    common.emit(correct, attempted, failed, metrics)
    return 0


def manifest_metrics(kind: str) -> dict:
    """name -> unit of the ``kind`` metrics in BENCHMARK.json: every
    workload reports all of them."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
