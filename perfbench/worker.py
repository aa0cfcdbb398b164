"""One workload run in a fresh process; started by run.py, not by hand.

Usage: worker.py WORKLOAD SEED SECONDS TRACE RESULT_JSON [--probe]

The BLAS thread count arrives in the environment and is checked here before
numpy is imported.  After imports and input generation the worker notes the
monotonic time of its first timed call (run.py turns that into setup_s),
then runs whole passes until SECONDS of wall time have gone by, at least
one.  Checks and untimed operations run between passes, outside pass_s.
With --probe it stops at the first timed call: run.py starts probes to
measure setup more than once per run.
"""

import os
import sys

if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" not in os.environ:
    raise SystemExit("worker.py: BLAS threads must be set before numpy loads")

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402


def main() -> int:
    workload, seed, seconds, trace, result_path = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    probe = "--probe" in sys.argv[6:]

    import snowlab
    src = Path("src").resolve()
    if Path(snowlab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"worker.py: snowlab not loaded from {src}")
    import tracer
    import workloads

    tr = tracer.Tracer()
    if trace:
        tr.install()
    workdir = Path(".bench_work") / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = workloads.Run(workdir, seed)
        wl = workloads.WORKLOADS[workload](run)
        t_ready = time.monotonic()
        if probe:
            Path(result_path).write_text(json.dumps({"t_ready": t_ready}))
            return 0

        cur, ref = workdir / "cur", workdir / "ref"
        pass_s: list[float] = []
        pass_cpu_s: list[float] = []
        passes: list[int] = []
        error = None
        while not pass_s or time.monotonic() - t_ready < seconds:
            tr.pass_id = len(pass_s) + 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                state = wl.run_pass(cur)
            except workloads.OpFailed as exc:
                error = str(exc)
                break
            pass_s.append(time.perf_counter() - t0)
            pass_cpu_s.append(time.process_time() - c0)
            passes.append(tr.pass_id)
            tr.pass_id = 0
            wl.check(state, cur)
            del state
            if hasattr(wl, "untimed_ops"):
                wl.untimed_ops(cur)
            if cur.exists():
                run.compare_rewrite(cur, ref)

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result = {
            "t_ready": t_ready,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "openblas": f"{blas.get('name')} {blas.get('version')}"},
            "passes": len(pass_s),
            "pass_times_s": pass_s,
            "pass_s": statistics.median(pass_s) if pass_s else None,
            "pass_cpu_s": pass_cpu_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
            "aborted": error,
            "checks": run.checks.count,
            "check_failures": run.checks.failures,
        }
        if trace and passes:
            result["layers"] = tr.layer_metrics(passes)
            spans = Path(result_path).with_suffix(".spans.jsonl")
            tr.dump(spans)
            result["spans_file"] = str(spans)
        Path(result_path).write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
