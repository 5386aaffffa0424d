"""One workload pass in a fresh interpreter; prints its result as one JSON line.

run.py starts this script once per pass:

    python3 perfbench/worker.py --root CHECKOUT --workload NAME --outdir DIR
                                [--trace --seed N --spans FILE]

``wall_s`` is timed after ``import schwave`` and covers the pass only; the
outputs are read back for checking after the clock stops, and ``outdir`` is
removed afterwards.  ``import_span`` and ``pass_span`` give both intervals
in ``time.monotonic()`` seconds, so that run.py can scale them by the
host-speed reference it ran meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import_span = [time.monotonic()]
    import schwave
    import_span.append(time.monotonic())
    if not Path(schwave.__file__).resolve().is_relative_to(src):
        print(f"imported schwave from {schwave.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    from schwave import backend, cli

    import workloads

    args.outdir.mkdir(parents=True)
    run = workloads.run_pass
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.seed)
        tracer.install()
        run = tracer.wrap("harness.pass", run)

    log = io.StringIO()
    pass_span = [time.monotonic()]
    with redirect_stdout(log):
        codes = run(cli, args.workload, args.outdir)
    pass_span.append(time.monotonic())
    wall_s = pass_span[1] - pass_span[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = sum(f.stat().st_size for f in args.outdir.rglob("*") if f.is_file())

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "wall_s": wall_s,
        "import_s": import_span[1] - import_span[0],
        "import_span": import_span,
        "pass_span": pass_span,
        "peak_rss_mb": peak_rss_mb,
        "exit_codes": codes,
        "env": {
            "backend": backend.BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics(wall_s, bytes_written, backend.BACKEND)
        result["layers"].update(tracer.microbench(backend.available_backends()))
        if args.spans is not None:
            tracer.write_spans(args.spans)
    result["outcomes"] = workloads.outcomes(args.workload, args.outdir)
    shutil.rmtree(args.outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
