#!/usr/bin/env python3
"""Record the reference outcomes that run.py checks every pass against.

Run from the root of a schwave checkout at the commit whose results are the
reference:

    python3 perfbench/make_reference.py

For each workload this runs one untraced pass and writes perfbench/reference.json:
the crossing step and status of every amplitude run, the fit, and the max
relative residual of every table.  Operations that already fail at that
commit are recorded, with their reasons, as baseline failures.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import workloads
from run import BLAS_ENV, HERE, Host, build


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, **BLAS_ENV)
    build(root, env)
    reference = {}
    for name in workloads.WORKLOADS:
        host = Host(root, env, workloads.exponent(name))
        result, _ = host.run_pass(name, time.monotonic() + 600.0)
        got = result["outcomes"]
        ops = workloads.check_ops(name, got, got)
        reference[name] = dict(got, baseline_failures={
            op: reasons for op, reasons in ops.items() if reasons})
        print(f"{name}: {len(ops)} ops, baseline failures "
              f"{reference[name]['baseline_failures']}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
