"""Spans around wittkit's public functions, installed from outside the package.

Every public module-level function of the seven layer modules is
replaced, in every module that binds it (including aliases such as
`centralizer.matrix_kernel` and the package namespace), by a wrapper
that records one span: function, binding it was reached through, start,
end, parent span and job id.  Spans stay in memory until the run ends.
In `cli` only `main` is wrapped, so its self time is argument parsing,
dispatch and JSON emission.  The two private elimination engines of
`linalg` are wrapped too when present, to split solver time by engine.

Counters taken at the same boundaries (matrix shapes, components,
certificates) are computed with the span clock paused: the time they
take is removed from every enclosing span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List

LAYERS = ("scalars", "witt", "linalg", "centralizer", "rigidity", "parsing", "cli")
ENGINES = {"linalg._eliminate_field": "linalg.field_engine",
           "linalg._eliminate_fraction_free": "linalg.fraction_free_engine"}

# Functions whose calls and self time are reported.
TIMED = ("witt.bracket", "centralizer.ad_matrix", "linalg.modular_rank", "linalg.kernel",
         "linalg.solve", "linalg.rank", "linalg.field_engine", "linalg.fraction_free_engine",
         "scalars.poly_gcd", "rigidity.solve_inner", "rigidity.realize_in_span",
         "parsing.parse_element")
# Functions whose time including callees is reported.
INCLUSIVE = ("centralizer.ad_matrix", "witt.bracket", "linalg.modular_rank", "linalg.kernel",
             "linalg.solve", "linalg.rank", "linalg.field_engine", "linalg.fraction_free_engine",
             "scalars.poly_gcd", "rigidity.solve_inner", "rigidity.realize_in_span")
COUNTERS = ("centralizer.ad_matrix.rows", "centralizer.ad_matrix.cols",
            "centralizer.ad_matrix.nnz", "centralizer.verify.calls",
            "centralizer.verify.specialized", "linalg.kernel.components",
            "linalg.kernel.largest_component", "linalg.kernel.components_over_12",
            "linalg.solve.certificates", "rigidity.realize_in_span.nontrivial")


def _components(matrix) -> List[int]:
    """Column counts of the connected components the rows tie together."""
    parent: Dict[int, int] = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in matrix.rows:
        cols = list(row)
        for c in cols:
            parent.setdefault(c, c)
        for c in cols[1:]:
            a, b = find(cols[0]), find(c)
            if a != b:
                parent[a] = b
    sizes: Dict[int, int] = {}
    for c in parent:
        root = find(c)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


def _fingerprint(matrix) -> tuple:
    rows = tuple(tuple(sorted(row.items())) for row in matrix.rows)
    return matrix.nrows, matrix.ncols, hash(rows)


class Tracer:
    def __init__(self):
        self.job = 0
        self.names: List[str] = []
        self.bindings: List[str] = []
        self.fn_of_binding: List[int] = []
        self.fn = array("H")
        self.binding = array("H")
        self.parent = array("l")
        self.job_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.paused = 0.0
        self.counters = {name: 0 for name in COUNTERS}
        # per job: (nnz, fingerprint) of each matrix handed to linalg
        self.systems: Dict[int, List[tuple]] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"wittkit.{name}") for name in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                qualified = f"{layer}.{attr}"
                if qualified in ENGINES:
                    targets[obj] = ENGINES[qualified]
                elif (not attr.startswith("_") and not inspect.isgeneratorfunction(obj)
                      and (layer != "cli" or attr == "main")):
                    targets[obj] = qualified
        hooks = {
            "centralizer.ad_matrix": self._hook_ad_matrix,
            "centralizer.verify_lemma_2_2": self._hook_verify,
            "centralizer.verify_lemma_4_1": self._hook_verify,
            "linalg.kernel": self._hook_kernel,
            "linalg.solve": self._hook_solve,
            "linalg.rank": self._hook_system,
            "linalg.modular_rank": self._hook_system,
            "rigidity.realize_in_span": self._hook_realize,
        }
        holders = [("wittkit", importlib.import_module("wittkit"))] + list(modules.items())
        for short, module in holders:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj not in targets:
                    continue
                name = targets[obj]
                setattr(module, attr, self._wrap(obj, name, f"{short}.{attr}", hooks.get(name)))

    def _wrap(self, fn, name, binding, hook):
        if name not in self.names:
            self.names.append(name)
        fid = self.names.index(name)
        self.bindings.append(binding)
        self.fn_of_binding.append(fid)
        bid = len(self.bindings) - 1
        clock = time.perf_counter
        fn_arr, bind_arr, parent_arr = self.fn, self.binding, self.parent
        job_arr, start_arr, end_arr, stack = self.job_of, self.start, self.end, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(fn_arr)
            fn_arr.append(fid)
            bind_arr.append(bid)
            parent_arr.append(stack[-1] if stack else -1)
            job_arr.append(tracer.job)
            end_arr.append(0.0)
            stack.append(idx)
            start_arr.append(clock() - tracer.paused)
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[idx] = clock() - tracer.paused
                stack.pop()
            if hook is not None:
                t0 = clock()
                hook(args, result)
                tracer.paused += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters ---------------------------------------------------------

    def _note_system(self, matrix) -> None:
        self.systems.setdefault(self.job, []).append((matrix.entry_count(), _fingerprint(matrix)))

    def _hook_system(self, args, result) -> None:
        self._note_system(args[0])

    def _hook_ad_matrix(self, args, result) -> None:
        matrix = result[0]
        self.counters["centralizer.ad_matrix.rows"] += matrix.nrows
        self.counters["centralizer.ad_matrix.cols"] += matrix.ncols
        self.counters["centralizer.ad_matrix.nnz"] += matrix.entry_count()

    def _hook_verify(self, args, result) -> None:
        self.counters["centralizer.verify.calls"] += 1
        if result.data.get("method") == "specialized-rank":
            self.counters["centralizer.verify.specialized"] += 1

    def _hook_kernel(self, args, result) -> None:
        sizes = _components(args[0])
        self.counters["linalg.kernel.components"] += len(sizes)
        self.counters["linalg.kernel.largest_component"] = max(
            [self.counters["linalg.kernel.largest_component"]] + sizes)
        self.counters["linalg.kernel.components_over_12"] += sum(1 for s in sizes if s > 12)
        self._note_system(args[0])

    def _hook_solve(self, args, result) -> None:
        if result.certificate is not None:
            self.counters["linalg.solve.certificates"] += 1
        self._note_system(args[0])

    def _hook_realize(self, args, result) -> None:
        span, target = args[1], args[3]
        if span and not target.is_zero:
            self.counters["rigidity.realize_in_span.nontrivial"] += 1

    # -- results ----------------------------------------------------------

    def _self_times(self):
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def summary(self, jobs) -> dict:
        """Per-function and per-binding totals, counters and time shares."""
        names, fn, parent = self.names, self.fn, self.parent
        dur, self_t = self._self_times()
        n = len(fn)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        outer = [0.0] * len(names)
        by_binding: Dict[int, List[float]] = {}
        # (binding, enclosing function) -> time of the outermost spans of
        # the binding's function that run inside the enclosing function
        inside: Dict[tuple, float] = {}
        mask = [0] * n
        for i in range(n):
            f = fn[i]
            p = parent[i]
            if p >= 0:
                mask[i] = mask[p] | (1 << fn[p])
            calls[f] += 1
            self_s[f] += self_t[i]
            entry = by_binding.setdefault(self.binding[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_t[i]
            if not (mask[i] >> f) & 1:
                outer[f] += dur[i]
                entry[2] += dur[i]
                bits = mask[i]
                while bits:
                    low = bits & -bits
                    key = (self.binding[i], low.bit_length() - 1)
                    inside[key] = inside.get(key, 0.0) + dur[i]
                    bits ^= low
        index = {name: i for i, name in enumerate(names)}

        def total(name, table):
            return table[index[name]] if name in index else 0

        def share_inside(child, enclosing):
            if enclosing not in index:
                return 0.0
            base = total(enclosing, outer)
            part = sum(t for (b, a), t in inside.items()
                       if a == index[enclosing] and self.names[self.fn_of_binding[b]] == child)
            return part / base if base else 0.0

        wall = total("cli.main", outer)

        def share(value):
            return (value / wall if wall else 0.0, "ratio")

        # Times are given as shares of the traced job time (trace.wall_s):
        # a function a workload never reaches then reads 0 as a ratio.
        metrics = {"trace.wall_s": (wall, "s")}
        layers = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(names):
            layers[name.split(".")[0]] += self_s[i]
        for layer, value in layers.items():
            metrics[f"layer.{layer}.self_share"] = share(value)
        for name in TIMED:
            metrics[f"{name}.calls"] = (total(name, calls), "count")
            metrics[f"{name}.self_share"] = share(total(name, self_s))
        metrics["cli.main.self_share"] = share(total("cli.main", self_s))
        for name in INCLUSIVE:
            metrics[f"{name}.incl_share"] = share(total(name, outer))
        for name, value in self.counters.items():
            metrics[name] = (value, "count")
        verify_calls = self.counters["centralizer.verify.calls"]
        metrics["centralizer.verify.specialized_ratio"] = (
            self.counters["centralizer.verify.specialized"] / verify_calls
            if verify_calls else 0.0, "ratio")
        metrics["witt.bracket.in_ad_matrix_share"] = (
            share_inside("witt.bracket", "centralizer.ad_matrix"), "ratio")
        metrics["linalg.field_engine.in_solve_share"] = (
            share_inside("linalg.field_engine", "linalg.solve"), "ratio")
        metrics["scalars.poly_gcd.in_solve_share"] = (
            share_inside("scalars.poly_gcd", "linalg.solve"), "ratio")
        # poly_gcd reached through the scalars module's own binding is
        # Scalar normalisation; through linalg's it is the fraction-free engine
        via_scalar = sum(entry[2] for b, entry in by_binding.items()
                         if self.bindings[b] == "scalars.poly_gcd")
        metrics["scalars.poly_gcd.via_scalar_share"] = share(via_scalar)
        metrics["linalg.shared_system_share"] = (self._shared_share(jobs), "ratio")
        return {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "wall_s": wall,
            "spans": n,
            "layers": layers,
            "functions": {name: {"calls": calls[i], "self_s": self_s[i], "outer_s": outer[i]}
                          for i, name in enumerate(names) if calls[i]},
            "bindings": {self.bindings[b]: {"calls": c, "self_s": s, "outer_s": o}
                         for b, (c, s, o) in by_binding.items()},
        }

    def _shared_share(self, jobs) -> float:
        """Share of jobs whose largest linear system an earlier job already had."""
        seen = set()
        shared = 0
        for job in jobs:
            systems = self.systems.get(job["id"])
            if not systems:
                continue
            principal = max(systems, key=lambda item: item[0])[1]
            if principal in seen:
                shared += 1
            seen.add(principal)
        return shared / len(jobs) if jobs else 0.0

    def write_spans(self, path: str) -> None:
        dur, self_t = self._self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.fn)):
                handle.write(json.dumps([
                    self.names[self.fn[i]], self.bindings[self.binding[i]], self.job_of[i],
                    self.parent[i], round(self.start[i], 7), round(self.end[i], 7),
                    round(self_t[i], 7)]) + "\n")
