"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of `elldens` from outside; no source file
changes.  `install` replaces every binding of a wrapped function in every
loaded `elldens` module (for example `jet_space_map` is bound in `base`, in
`density` and in the package), so a call through any import site is seen.
Each call opens a span that records its name, start, end and parent span.
Spans stay in memory and are written by `write_spans` when the run ends.
Counts are taken at the same boundaries, from the arguments and results.

Self time is a span's duration minus the time covered by its child spans;
inclusive time per name counts only outermost spans of that name, so a
recursive call is not counted twice.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._child = array("d")
        self._stack: list[int] = []
        self._open = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        nid = self._name_id(name)
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self._child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self._open[nid] += 1
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        self._stack.pop()
        dur = t - self.start[sid]
        nid = self.name[sid]
        par = self.parent[sid]
        if par >= 0:
            self._child[par] += dur
        self.self_time[nid] += dur - self._child[sid]
        self._open[nid] -= 1
        if not self._open[nid]:
            self.inclusive[nid] += dur
        self.calls[nid] += 1

    def wrap(self, name: str, fn, hook=None):
        """`fn` inside a span called `name`; `hook(counts, args, result)`
        records counts after a call that returned."""
        tracer = self
        tracer._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def counted(self, key: str, fn):
        """`fn` with a call count under `key` and no span (for methods called
        millions of times, where a span would dominate the cost)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def seconds(self, name: str) -> float:
        return self.inclusive.get(self._ids.get(name, -1), 0.0)

    def self_seconds(self, name: str) -> float:
        return self.self_time.get(self._ids.get(name, -1), 0.0)

    def ncalls(self, name: str) -> int:
        return self.calls.get(self._ids.get(name, -1), 0)

    def write_spans(self, path) -> None:
        """All spans as gzip'd tab-separated rows: id, parent, name, start, end
        (perf_counter seconds)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                         f"\t{self.start[sid]!r}\t{self.end[sid]!r}\n")


# -- what is wrapped -------------------------------------------------------------


def _points(counts, args, result):
    counts["base.closed_points.count"] += len(result)


def _jet_rows(counts, args, result):
    counts["base.jet_space_map.cells"] += result.rows * result.cols
    counts[f"base.jet_rows.deg{result.point.degree}"] += result.rows


def _rank_cells(counts, args, result):
    rows, cols = args[0].shape
    counts["linalg.rank_mod_p.cells"] += rows * cols


def _closed_form_hits(counts, args, result):
    counts["weier.singular_jets_closed_form.hits"] += result is not None


def _census_tuples(counts, args, result):
    counts["density.jet_census.tuples"] += result.total


FUNCTIONS = (  # (module, attribute, span name, count hook)
    ("elldens.gf", "make_field", "gf.make_field", None),
    ("elldens.zeta", "zeta_table", "zeta.zeta_table", None),
    ("elldens.zeta", "zeta_inverse_truncated", "zeta.zeta_inverse_truncated", None),
    ("elldens.base", "closed_points_up_to", "base.closed_points_up_to", _points),
    ("elldens.base", "jet_space_map", "base.jet_space_map", _jet_rows),
    ("elldens.base", "jet_at", "base.jet_at", None),
    ("elldens.linalg", "rank_mod_p", "linalg.rank_mod_p", _rank_cells),
    ("elldens.sections", "exact_divide", "sections.exact_divide", None),
    ("elldens.sections", "section_from_slots", "sections.section_from_slots", None),
    ("elldens.weier", "singular_jets_closed_form", "weier.singular_jets_closed_form",
     _closed_form_hits),
    ("elldens.weier", "singular_jets_oracle", "weier.singular_jets_oracle", None),
    ("elldens.weier", "discriminant_value", "weier.discriminant_value", None),
    ("elldens.weier", "weierstrass_from_slots", "weier.weierstrass_from_slots", None),
    ("elldens.weier", "discriminant", "weier.discriminant", None),
    ("elldens.weier", "minimality_witness", "weier.minimality_witness", None),
    ("elldens.density", "mc_density", "density.mc_density", None),
    ("elldens.density", "sample_seed", "density.sample_seed", None),
    ("elldens.density", "jet_census", "density.jet_census", _census_tuples),
    ("elldens.density", "surjectivity_check", "density.surjectivity_check", None),
    ("elldens.density", "singular_scan", "density.singular_scan", None),
)

METHODS = (  # (module, class, method names, span name)
    ("elldens.sections", "Section", ("__mul__", "__rmul__"), "sections.Section.mul"),
)

COUNTED_METHODS = (  # (module, class, method names, count key)
    ("elldens.gf", "FieldElem",
     ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
      "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__"),
     "gf.elem_ops"),
)


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


def install(tracer: Tracer) -> Patches:
    """Wrap every function in FUNCTIONS at each of its binding sites, and the
    methods in METHODS and COUNTED_METHODS on their classes."""
    import elldens.cli  # noqa: F401  (loads every module that binds a target)

    mods = [m for n, m in sorted(sys.modules.items())
            if n == "elldens" or n.startswith("elldens.")]
    patches = Patches()
    for modname, attr, span, hook in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        traced = tracer.wrap(span, orig, hook)
        for mod in mods:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    patches.set(mod, name, traced)
    for modname, clsname, methods, span in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for meth in methods:
            patches.set(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
    for modname, clsname, methods, key in COUNTED_METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for meth in methods:
            patches.set(cls, meth, tracer.counted(key, cls.__dict__[meth]))
    return patches


def layer_metrics(tracer: Tracer, units: int, useful_degree: int | None) -> dict:
    """Per-layer metrics of the library layers from one traced pass that
    completed `units` units of work.  Rows of jet matrices at points of
    degree <= useful_degree count as useful (all rows when it is None)."""
    c = tracer.counts
    per_unit = 1.0 / units
    rows = {int(k[len("base.jet_rows.deg"):]): v for k, v in c.items()
            if k.startswith("base.jet_rows.deg")}
    total_rows = sum(rows.values())
    useful_rows = sum(v for d, v in rows.items()
                      if useful_degree is None or d <= useful_degree)
    cf = "weier.singular_jets_closed_form"
    cf_calls = tracer.ncalls(cf)
    return {
        "gf.make_field.s": tracer.seconds("gf.make_field"),
        "gf.elem_ops": c["gf.elem_ops"],
        "gf.elem_ops_per_unit": c["gf.elem_ops"] * per_unit,
        "sections.Section.mul.s": tracer.seconds("sections.Section.mul"),
        "sections.Section.mul.calls": tracer.ncalls("sections.Section.mul"),
        "sections.exact_divide.s": tracer.seconds("sections.exact_divide"),
        "sections.section_from_slots.calls": tracer.ncalls("sections.section_from_slots"),
        "zeta.zeta_table.s": tracer.seconds("zeta.zeta_table"),
        "zeta.zeta_inverse_truncated.s": tracer.seconds("zeta.zeta_inverse_truncated"),
        "base.closed_points_up_to.s": tracer.seconds("base.closed_points_up_to"),
        "base.closed_points.count": c["base.closed_points.count"],
        "base.jet_space_map.s": tracer.seconds("base.jet_space_map"),
        "base.jet_space_map.calls": tracer.ncalls("base.jet_space_map"),
        "base.jet_space_map.cells": c["base.jet_space_map.cells"],
        "base.jet_rows.useful_frac": useful_rows / total_rows if total_rows else 0.0,
        "base.jet_at.s": tracer.seconds("base.jet_at"),
        "base.jet_at.calls": tracer.ncalls("base.jet_at"),
        "linalg.rank_mod_p.s": tracer.seconds("linalg.rank_mod_p"),
        "linalg.rank_mod_p.calls": tracer.ncalls("linalg.rank_mod_p"),
        "linalg.rank_mod_p.cells": c["linalg.rank_mod_p.cells"],
        f"{cf}.s": tracer.seconds(cf),
        f"{cf}.calls_per_unit": cf_calls * per_unit,
        f"{cf}.hit_frac": c[f"{cf}.hits"] / cf_calls if cf_calls else 0.0,
        "weier.singular_jets_oracle.s": tracer.seconds("weier.singular_jets_oracle"),
        "weier.discriminant_value.s": tracer.seconds("weier.discriminant_value"),
        "weier.discriminant_value.calls_per_sample":
            tracer.ncalls("weier.discriminant_value") * per_unit,
        "weier.weierstrass_from_slots.calls_per_sample":
            tracer.ncalls("weier.weierstrass_from_slots") * per_unit,
        "weier.discriminant.s": tracer.seconds("weier.discriminant"),
        "weier.discriminant.calls": tracer.ncalls("weier.discriminant"),
        "weier.minimality_witness.s": tracer.seconds("weier.minimality_witness"),
        "density.mc_density.self_s": tracer.self_seconds("density.mc_density"),
        "density.sample_seed.s": tracer.seconds("density.sample_seed"),
        "density.sample_seed.calls": tracer.ncalls("density.sample_seed"),
        "density.jet_census.self_s": tracer.self_seconds("density.jet_census"),
        "density.jet_census.tuples": c["density.jet_census.tuples"],
        "density.surjectivity_check.s": tracer.seconds("density.surjectivity_check"),
        "density.singular_scan.self_s": tracer.self_seconds("density.singular_scan"),
    }
