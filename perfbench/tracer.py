"""Spans around calls into snowlab's public functions, recorded from outside.

`install` replaces each listed function, in every loaded snowlab module
that holds a reference to it, with a wrapper that records a span: name,
start, end, parent span, pass id and ru_maxrss at the end.  Spans stay in
memory until the run ends.  A layer's busy time is its self time: span time
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time

# Layer metric -> (module, public functions) whose self time it sums.
LAYERS = {
    "lattice.build_mesh_s": ("lattice", ["build_mesh"]),
    "lattice.validate_s": ("lattice", ["validate"]),
    "lattice.boundary_cycle_s": ("lattice", ["boundary_cycle"]),
    "lattice.boundary_hop_distance_s": ("lattice", ["boundary_hop_distance"]),
    "operators.assemble_s": ("operators", ["assemble"]),
    "operators.energy_sequence_s": ("operators", ["energy_sequence"]),
    "solver.eig_full_s": ("solver", ["eig_full"]),
    "solver.eig_partial_s": ("solver", ["eig_partial"]),
    "analysis.regime_s": ("analysis", ["regime_threshold", "loglog_slopes"]),
    "analysis.multiplicity_s": ("analysis", ["multiplicity_groups"]),
    "analysis.landscape_s": ("analysis", ["landscape",
                                          "landscape_bound_check"]),
    "analysis.localization_s": ("analysis", ["localization_report"]),
    "analysis.pairing_s": ("analysis", ["pair_eigenvectors"]),
    "extension.harmonic_extend_s": ("extension", ["harmonic_extend"]),
    "extension.energy_split_s": ("extension", ["energy_split"]),
    "extension.decay_profile_s": ("extension", ["decay_profile"]),
    "fileio.write_s": ("fileio", "write_"),
    "fileio.read_s": ("fileio", "read_"),
}
CLI_COMMANDS = ("mesh", "assemble", "eig", "count", "landscape", "localize",
                "extend", "energy-seq")
RATES = {  # rate metric -> (metric whose spans count the work, scale)
    "lattice.vertices_per_s": ("lattice.build_mesh_s", 1.0),
    "solver.dense_pairs_per_s": ("solver.eig_full_s", 1.0),
    "fileio.write_mb_per_s": ("fileio.write_s", 1e-6),
}
PER_LAYER = (list(LAYERS) + ["lattice.vertices_per_s",
                             "solver.dense_pairs_per_s",
                             "fileio.bytes_written", "fileio.write_mb_per_s"]
             + [f"cli.{c}_s" for c in CLI_COMMANDS])


def unit(metric: str) -> str:
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric == "fileio.bytes_written":
        return "bytes"
    return "s"


class Tracer:
    def __init__(self):
        # [id, name, parent, pass, start, end, maxrss_kb, extra, child paths]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.pass_id = 0

    def _wrap(self, name, fn, measure):
        path_at = None
        if name == "fileio.write_s":
            path_at = list(inspect.signature(fn).parameters).index("path")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            label = name
            if name == "cli":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0] if argv else 'none'}_s"
            span = [len(self.spans), label, parent[0] if parent else None,
                    self.pass_id, time.perf_counter(), None, None, None, set()]
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                span[6] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.stack.pop()
            if measure is not None:
                span[7] = measure(result)
            if path_at is not None:
                path = os.fspath(args[path_at] if len(args) > path_at
                                 else kwargs["path"])
                if path not in span[8]:  # not already counted by a child
                    span[7] = os.path.getsize(path)
                if parent is not None:
                    parent[8].add(path)
            return result
        return wrapper

    def install(self) -> None:
        import snowlab.cli  # noqa: F401  (loads every snowlab module)

        mods = [m for n, m in list(sys.modules.items())
                if n == "snowlab" or n.startswith("snowlab.")]
        measures = {"build_mesh": lambda mesh: mesh.num_vertices,
                    "eig_full": lambda spec: spec.count}
        targets = []
        for metric, (modname, names) in LAYERS.items():
            mod = sys.modules[f"snowlab.{modname}"]
            if isinstance(names, str):  # a prefix: every public function
                names = [n for n, v in vars(mod).items()
                         if n.startswith(names) and inspect.isfunction(v)
                         and v.__module__ == mod.__name__]
            for fname in names:
                targets.append((metric, getattr(mod, fname),
                                measures.get(fname)))
        targets.append(("cli", sys.modules["snowlab.cli"].main, None))
        for metric, fn, measure in targets:
            wrapper = self._wrap(metric, fn, measure)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Self time per layer metric, and counts, summed for each pass."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                child[s[2]] += s[5] - s[4]
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            acc = out.setdefault(s[3], {})
            acc[s[1]] = acc.get(s[1], 0.0) + (s[5] - s[4]) - child[s[0]]
            if s[7] is not None:
                acc[s[1] + "#count"] = acc.get(s[1] + "#count", 0) + s[7]
        return out

    def layer_metrics(self, passes: list[int]) -> dict[str, float]:
        """Median over the run's passes of each per-layer metric; a layer
        that never ran in this workload reads 0."""
        table = self.per_pass()
        rows = [table.get(p, {}) for p in passes]
        metrics = {}
        for m in PER_LAYER:
            if m in RATES:
                timed, scale = RATES[m]
                vals = [r.get(timed + "#count", 0) * scale / r[timed]
                        if r.get(timed) else 0.0 for r in rows]
            elif m == "fileio.bytes_written":
                vals = [r.get("fileio.write_s#count", 0) for r in rows]
            else:
                vals = [r.get(m, 0.0) for r in rows]
            metrics[m] = statistics.median(vals)
        return metrics

    def dump(self, path) -> None:
        keys = ("id", "name", "parent", "pass", "start", "end", "maxrss_kb",
                "count")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s[:8]))) + "\n")
