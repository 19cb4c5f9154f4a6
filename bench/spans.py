"""Span tracing of folint's layers from outside the package.

A Tracer wraps public functions of each module and records one span per
call: name, start, end, parent span and the benchmark item it served.
folint imports names directly (``from .linsolve import solve_canonical``),
so a wrapper replaces the original at every binding site: each module global
and class attribute in the loaded ``folint`` modules that holds the original
object.  Spans stay in memory (flat arrays) until the run ends; per-layer
numbers are computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path) of every wrapped callable.
TARGETS = (
    ("linsolve.solve_canonical", "folint.linsolve", "solve_canonical"),
    ("francoise.decompose", "folint.francoise", "decompose"),
    ("francoise.melnikov_sequence", "folint.francoise", "melnikov_sequence"),
    ("abelian.period_of_form", "folint.abelian", "period_of_form"),
    ("algebra.poly_gcd", "folint.algebra", "poly_gcd"),
    ("algebra.divexact", "folint.algebra", "divexact"),
    ("algebra.BivarPoly.mul", "folint.algebra", "BivarPoly.__mul__"),
    ("algebra.EpsSeries.invert", "folint.algebra", "EpsSeries.invert"),
    ("algebra.parse_poly", "folint.algebra", "parse_poly"),
    ("exterior.wedge", "folint.exterior", "wedge"),
    ("exterior.d_total", "folint.exterior", "d_total"),
    ("exterior.truncate_weight", "folint.exterior", "truncate_weight"),
    ("godbillon.integrability_defect", "folint.godbillon", "integrability_defect"),
    ("godbillon.integrating_factor", "folint.godbillon", "integrating_factor"),
    ("godbillon.length_two_witness", "folint.godbillon", "length_two_witness"),
    ("godbillon.classical_gv_forms", "folint.godbillon", "classical_gv_forms"),
    ("oracle.holonomy_return", "folint.oracle", "holonomy_return"),
    ("oracle.displacement_table", "folint.oracle", "displacement_table"),
    ("oracle.melnikov_estimate", "folint.oracle", "melnikov_estimate"),
    ("oracle.first_melnikov_richardson", "folint.oracle", "first_melnikov_richardson"),
    ("cli.parse_problem", "folint.cli", "parse_problem"),
    ("cli.cmd_gv", "folint.cli", "cmd_gv"),
    ("cli.cmd_melnikov", "folint.cli", "cmd_melnikov"),
    ("cli.cmd_oracle", "folint.cli", "cmd_oracle"),
    ("cli.RunReport.to_json", "folint.cli", "RunReport.to_json"),
)
ITEM = "bench.item"


def _solve_shape(rows, rhs):
    return len(rows), len(rows[0]) if rows else 0


def _decompose_form(w, *args, **kwargs):
    return w


def _lanes(fn, count):
    """(steps, lanes) of one call: a revolution of cfg.step_count RK4 steps."""
    signature = inspect.signature(fn)

    def probe(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["cfg"].step_count, count(bound.arguments)

    return probe


# Sizes taken from the arguments before a call; kept per label, analysed
# after the run.  Only cheap reads happen inside the traced process.
PROBES = {
    "linsolve.solve_canonical": lambda fn: _solve_shape,
    "francoise.decompose": lambda fn: _decompose_form,
    "oracle.holonomy_return": lambda fn: _lanes(fn, lambda a: 1),
    "oracle.melnikov_estimate": lambda fn: _lanes(fn, lambda a: 2 * a["orders"] + 1),
    "oracle.first_melnikov_richardson": lambda fn: _lanes(fn, lambda a: a["levels"] + 1),
}
# Results kept for the per-layer error figures.
RECORD_RESULT = {"oracle.displacement_table"}


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.outer = array("b")  # no ancestor span of the same name
        self.stack = [-1]
        self.depth: list[int] = []
        self.item_id = -1
        self.probed: dict[str, list] = {n: [] for n in PROBES}
        self.results: dict[str, list] = {n: [] for n in RECORD_RESULT}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, idx: int) -> int:
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.outer.append(self.depth[idx] == 0)
        self.depth[idx] += 1
        self.stack.append(i)
        return i

    def _close(self, i: int, idx: int) -> None:
        self.end[i] = perf_counter()
        self.depth[idx] -= 1
        self.stack.pop()

    def _index(self, label: str) -> int:
        self.names.append(label)
        self.depth.append(0)
        return len(self.names) - 1

    def wrap(self, label: str, fn):
        idx = self._index(label)
        probe = PROBES[label](fn) if label in PROBES else None
        probe_log = self.probed.get(label)
        result_log = self.results.get(label)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe_log.append(probe(*args, **kwargs))
            i = open_(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i, idx)
            if result_log is not None:
                result_log.append(result)
            return result

        return wrapper

    def run_item(self, item_id: int, fn):
        """Run fn as the root span of one benchmark item."""
        if not self.names or self.names[0] != ITEM:
            raise RuntimeError("install() must run before run_item()")
        self.item_id = item_id
        i = self._open(0)
        try:
            return fn()
        finally:
            self._close(i, 0)
            self.item_id = -1

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site; fail loudly if one is gone."""
        self._index(ITEM)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "folint" or n.startswith("folint.")) and m is not None]
        for label, module, path in TARGETS:
            try:
                orig = _resolve(module, path)
            except (KeyError, AttributeError) as exc:
                raise RuntimeError(f"trace target {module}.{path} not found") from exc
            wrapper = self.wrap(label, orig)
            sites = 0
            for mod in modules:
                for owner in [mod] + [v for v in vars(mod).values()
                                      if isinstance(v, type)
                                      and v.__module__.startswith("folint")]:
                    for key, value in list(vars(owner).items()):
                        if value is orig:
                            self._patches.append((owner, key, value))
                            setattr(owner, key, wrapper)
                            sites += 1
            if sites == 0:
                raise RuntimeError(f"trace target {label} has no binding site")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item, dtype=np.int32),
            "outer": np.array(self.outer, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost spans only) and self_s for every name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        selfs = self.self_times()
        out = {}
        for idx, label in enumerate(self.names):
            mask = a["name"] == idx
            out[label] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask & (a["outer"] == 1)].sum()),
                "self_s": float(selfs[mask].sum()),
            }
        return out

    def item_accounting(self, measured) -> float:
        """Largest share of an item's wall time its span self times miss.

        measured[i] is the wall time of item i as timed outside the tracer,
        around run_item; an item with no span misses all of it.
        """
        a = self.arrays()
        per_item = np.zeros(len(measured))
        traced = a["item"] >= 0
        np.add.at(per_item, a["item"][traced], self.self_times()[traced])
        wall = np.asarray(measured, dtype=np.float64)
        return float(np.max(np.abs(wall - per_item) / wall, initial=0.0))


def _coeff_bits(form) -> int:
    bits = 0
    for poly in (form.p, form.q):
        for c in poly.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def derived_counters(tracer: Tracer) -> dict[str, float]:
    """Sizes computed from the probed arguments and the recorded results."""
    shapes = tracer.probed["linsolve.solve_canonical"]
    forms = tracer.probed["francoise.decompose"]
    runs = [run for label in ("oracle.holonomy_return", "oracle.melnikov_estimate",
                              "oracle.first_melnikov_richardson")
            for run in tracer.probed[label]]
    tables = tracer.results["oracle.displacement_table"]
    return {
        "linsolve.cells": sum(m * n for m, n in shapes),
        "linsolve.max_cols": max((n for _, n in shapes), default=0),
        "francoise.block_degree_max": max(
            (max(w.p.degree(), w.q.degree()) for w in forms), default=0),
        "francoise.coeff_bits_max": max((_coeff_bits(w) for w in forms), default=0),
        "oracle.steps": sum(steps for steps, _ in runs),
        "oracle.lane_steps": sum(steps * lanes for steps, lanes in runs),
        "oracle.max_est_error": max(
            (s.est_error for table in tables for s in table), default=0.0),
    }
