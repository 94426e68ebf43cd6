#!/usr/bin/env python3
"""Record the goldens that run.py checks on the default seed.

    python3 perfbench/record_goldens.py

Runs all run.OPS[workload] input ops of the default seed of every
workload through the CLI and stores, per op, a fingerprint of its input
and the part of its result that checks.golden_view pins down. Recording
refuses to write when any op fails its seed-independent checks.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.cap_blas_threads()
    for workload in run.WORKLOADS:
        inputs, _ = run.setup(workload, run.DEFAULT_SEED)
        import checks

        results = []
        loop = run.run_loop(inputs, [], None, len(inputs), results=results)
        if loop["failed"]:
            print(f"{workload}: {loop['failed']} ops failed: {loop['errors']}",
                  file=sys.stderr)
            return 1
        lines = [json.dumps({"config_sha": checks.config_sha(config), "golden": r})
                 for (_, config), r in zip(inputs, results)]
        run.GOLDENS.mkdir(exist_ok=True)
        (run.GOLDENS / f"{workload}.json").write_text(
            f'{{"workload": "{workload}", "seed": {run.DEFAULT_SEED}, "ops": [\n'
            + ",\n".join(lines) + "\n]}\n")
        print(f"{workload}: {len(lines)} ops recorded in {loop['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
