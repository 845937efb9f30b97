"""Spans around artinlab's public functions, installed from outside the package.

`install` wraps each name in TARGETS and rebinds the wrapper wherever the
original object is bound, because modules import functions by name (artin
binds `span_module`, `subspace_intersect`, ...; orders binds `MTower`,
`span_ideal`).  Methods are patched on their class, which every importer
shares.  A name that no longer exists is reported as absent.

Every span keeps its name, start, end, parent span and job id in flat arrays
in memory; `aggregate` turns them into per-name calls, self time (duration
minus the time its direct children cover) and inclusive time, and `dump`
writes them out once the pass is over.
"""

from __future__ import annotations

import argparse
import gzip
import sys
import time
from array import array

# (module, attribute path, span name)
TARGETS = [
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("series", "TruncatedSeries.__add__", "series.addsub"),
    ("series", "TruncatedSeries.__sub__", "series.addsub"),
    ("subspace", "Subspace.insert", "subspace.insert"),
    ("subspace", "Subspace.reduce", "subspace.reduce"),
    ("subspace", "Subspace.contains", "subspace.contains"),
    ("subspace", "subspace_intersect", "subspace.intersect"),
    ("subspace", "span_module", "subspace.span"),
    ("subspace", "span_m_power", "subspace.span"),
    ("subspace", "MTower.__init__", "subspace.tower.build"),
    ("subspace", "MTower.order_of_vec", "subspace.tower.query"),
    ("subspace", "solve_linear", "subspace.solve_linear"),
    ("orders", "NuOracle.__init__", "orders.oracle.build"),
    ("orders", "NuOracle.nu", "orders.nu"),
    ("orders", "NuOracle.sound_member", "orders.sound_member"),
    ("orders", "scan_candidates", "orders.candidates"),
    ("orders", "icl_scan", "orders.icl_scan"),
    ("orders", "valuation_check", "orders.valuation_check"),
    ("orders", "nu_bar_estimate", "orders.nu_bar"),
    ("artin", "artin_rees_index", "artin.ar_index"),
    ("artin", "stable_ar_scan", "artin.stable_ar"),
    ("artin", "solve_linear_regular", "artin.solve"),
    ("artin", "solve_fx_hy", "artin.solve"),
    ("artin", "beta_lower_bound_bruteforce", "artin.beta"),
    ("witness", "irreducibility_exhaustive", "witness.irr"),
    ("witness", "monomial_witness_family", "witness.family"),
    ("parsing", "parse_expr", "parsing"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "_emit", "cli.emit"),
]

# counted without spans: a span per scalar operation would swamp the run
COUNTED = [("series", f"RingSpec.{op}", "series.field_ops") for op in ("s_from", "s_add", "s_sub", "s_mul", "s_neg", "s_inv")]

# spans whose boolean results are counted (inserts that raised the dimension)
COUNT_TRUE = {"subspace.insert"}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.stack = [-1]
        self.current_job = [-1]
        self.counts = {}
        self.true_counts = {}
        self.absent = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        start, end, names, parent, job, stack, current = (
            self.start, self.end, self.name, self.parent, self.job, self.stack, self.current_job)
        clock = time.perf_counter
        trues = self.true_counts.setdefault(name, [0]) if name in COUNT_TRUE else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            job.append(current[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if trues is not None and result is True:
                trues[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def job_span(self, job_id: int, run):
        """Run one job under a root span named 'job'."""
        self.current_job[0] = job_id
        return self.span_wrapper(run, "job")()

    # -- installation --------------------------------------------------------
    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "artinlab" or name.startswith("artinlab.")]
        for module, path, name in TARGETS:
            self._patch(modules, module, path, self.span_wrapper, name)
        for module, path, name in COUNTED:
            self._patch(modules, module, path, self.count_wrapper, name)
        # top-level argv parses (subparsers go through parse_known_args instead)
        argparse.ArgumentParser.parse_args = self.count_wrapper(argparse.ArgumentParser.parse_args, "cli.parse_args")

    def _patch(self, modules, module: str, path: str, make, name: str):
        owner = sys.modules.get(f"artinlab.{module}")
        head, _, attr = path.rpartition(".")
        if head:
            owner = getattr(owner, head, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{path}")
            return
        wrapped = make(original, name)
        if head:  # a method: the class is the only binding
            setattr(owner, attr, wrapped)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: calls, self time, and inclusive time of outermost spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for idx in range(n):
            p = parent[idx]
            if p >= 0:
                child[p] += end[idx] - start[idx]
        stats = {nm: {"calls": 0, "self_s": 0.0, "s": 0.0} for nm in self.names}
        for idx in range(n):
            dur = end[idx] - start[idx]
            st = stats[self.names[name[idx]]]
            st["calls"] += 1
            st["self_s"] += dur - child[idx]
            p = parent[idx]
            while p >= 0 and name[p] != name[idx]:
                p = parent[p]
            if p < 0:
                st["s"] += dur
        for nm, cell in self.true_counts.items():
            stats[nm]["true"] = cell[0]
        for nm, cell in self.counts.items():
            stats[nm] = {"calls": cell[0]}
        return stats

    def dump(self, path: str):
        """Write every span as a tab-separated row: id, parent, job, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart\tend\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx}\t{self.parent[idx]}\t{self.job[idx]}\t{self.names[self.name[idx]]}\t"
                         f"{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n")
