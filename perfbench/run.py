"""snowlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload spectra-l4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a snowlab checkout; the package is imported from
./src.  Each workload runs in a fresh worker process (perfbench/worker.py)
with the BLAS thread count pinned in its environment; all load comes from
that one process.  Two more probe processes repeat the set-up (interpreter,
imports, input generation) so that setup_s is a median of three.

The last line of output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  A results file with the same numbers plus the environment
(thread count, nproc, Python, numpy, scipy and OpenBLAS versions, seed) is
written under --results, default .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectra-l4", "cli-l3", "fine-mesh")
END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PROBES = 2
RUN_LIMIT_S = 170


def blas_threads() -> tuple[int, int]:
    nproc = len(os.sched_getaffinity(0))
    return min(2, nproc), nproc


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py; return its result file and the spawn time."""
    result = Path(args[4])
    result.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    data["setup_s"] = data["t_ready"] - t_spawn
    return data


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 results: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    threads, nproc = blas_threads()
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    tmp = str(stem) + ".worker.json"
    args = [name, str(seed), str(seconds), str(trace), tmp]

    setups = [spawn(args + ["--probe"], env, deadline)["setup_s"]
              for _ in range(PROBES)]
    data = spawn(args, env, deadline)
    setups.append(data["setup_s"])
    if data["pass_s"] is None:
        raise RuntimeError(f"{name}: no pass completed: {data['errors']}")
    correct = not data["check_failures"]
    if trace:
        from tracer import unit
        metrics = {k: {"value": v, "unit": unit(k)}
                   for k, v in data["layers"].items()}
    else:
        values = {"pass_s": data["pass_s"], "peak_rss_mb": data["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    line = {"correct": correct, "attempted": data["attempted"],
            "failed": data["failed"], "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "blas_threads": threads, "nproc": nproc,
              "platform": platform.platform(), **data.pop("versions"),
              "setup_samples_s": setups, "result": line, "worker": data}
    Path(str(stem) + ".json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in data["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for error in data["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=Path(".bench_results"))
    args = ap.parse_args()
    if not (Path("src") / "snowlab" / "__init__.py").is_file():
        print("run.py: no src/snowlab here; run from a snowlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, args.results)))
        return 0
    lines = {}
    for name in WORKLOADS:
        line = lines[name] = run_workload(name, args.seed, args.seconds,
                                          args.trace, args.results)
        print(f"[{name}] correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        for k, m in line["metrics"].items():
            print(f"[{name}] {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
