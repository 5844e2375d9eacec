"""Span tracer wrapped around dickesim's public functions, from outside.

``Tracer.install`` replaces every public function of the layer modules with
a recording wrapper, in every module namespace that holds it.  Several
modules import names directly (``from .core import hermitian_exp``), so a
function is patched wherever a caller looks it up; one wrapper object is
shared by all those places and the span is named after the defining module.
Two callables are not module functions and are patched by hand: the
objective closure that ``make_objective`` returns and ``ResultRecord.save``.

A span holds a name, start, end, parent span and operation id, plus one
number the wrapper reads off the call (d^3 of a dense exponential, bytes
written, a reached dimension, improving rounds).  Spans stay in flat arrays
in memory and are written out once, when the benchmark ends.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, List

import numpy as np

PACKAGE = "dickesim"
LAYERS = ("core", "gates", "targets", "optimizer", "wigner", "algebra", "seqfile", "cli")


def _value_hermitian_exp(args, kwargs, result) -> float:
    return float(result.space.dim) ** 3


def _value_written_bytes(args, kwargs, result) -> float:
    """Size of the file written by ``export_grid(grid, path)`` or
    ``ResultRecord.save(self, path)``."""
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return float(os.path.getsize(path)) if path and os.path.exists(path) else 0.0


def _value_lie_closure(args, kwargs, result) -> float:
    return float(result.reached_dimension)


def _value_restart_search(args, kwargs, result) -> float:
    """Rounds that raised the incumbent fidelity (history rows after the first)."""
    fids = [row[2] for row in result.history]
    return float(sum(b > a for a, b in zip(fids, fids[1:])))


VALUES: Dict[str, Callable] = {
    "core.hermitian_exp": _value_hermitian_exp,
    "wigner.export_grid": _value_written_bytes,
    "seqfile.record_save": _value_written_bytes,
    "algebra.lie_closure": _value_lie_closure,
    "optimizer.random_restart_search": _value_restart_search,
}


class Tracer:
    """Records spans of wrapped calls; ``op_id`` tags them with the operation."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.recording = True
        self._patches: list = []
        self._wrappers: Dict[int, Callable] = {}

    # ------------------------------------------------------------- wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, span: str) -> Callable:
        nid = self._name_id(span)
        value_of = VALUES.get(span)
        after = self._objective if span == "optimizer.make_objective" else None
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.op_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.value.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if value_of is not None:
                tr.value[idx] = value_of(args, kwargs, result)
            return after(result) if after is not None else result

        return traced

    def _objective(self, f: Callable) -> Callable:
        return self.wrap(f, "optimizer.objective")

    def _patch(self, owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = self.wrap(original, span)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public layer function wherever a layer module holds it."""
        if self._patches:
            return
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith(PACKAGE + ".") and home in modules:
                    self._patch(mod, attr, f"{home}.{obj.__name__}")
        self._patch(modules["seqfile"].ResultRecord, "save", "seqfile.record_save")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def arrays(self) -> dict:
        name, parent, op = (np.asarray(a, dtype=np.int32) for a in (self.name, self.parent, self.op))
        start, end, value = (np.asarray(a, dtype=float) for a in (self.start, self.end, self.value))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {"name": name, "parent": parent, "op": op, "start": start, "end": end,
                "value": value, "self": dur - child[:dur.size]}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: a[k] for k in
                 ("name", "parent", "op", "start", "end", "value")})

    def layer_metrics(self, warm_ops: Iterable[int], cold_op: int) -> Dict[str, float]:
        """Per-layer metrics over the warm operations (per operation unless a
        ratio), plus the cold Clebsch-Gordan count of the first operation."""
        a = self.arrays()
        warm_ids = np.asarray(sorted(set(warm_ops)), dtype=np.int32)
        n_ops = max(1, warm_ids.size)
        warm = np.isin(a["op"], warm_ids)

        def mask(prefix: str, exact: bool = True) -> np.ndarray:
            ids = [i for n, i in self._ids.items()
                   if (n == prefix if exact else n.startswith(prefix))]
            return warm & np.isin(a["name"], ids)

        def calls(span: str) -> float:
            return float(np.count_nonzero(mask(span)))

        def self_s(span: str, exact: bool = True) -> float:
            return float(a["self"][mask(span, exact)].sum()) / n_ops

        def value(span: str) -> float:
            return float(a["value"][mask(span)].sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        cg_id = self._ids.get("wigner.clebsch_gordan", -1)
        cold_cg = float(np.count_nonzero((a["op"] == cold_op) & (a["name"] == cg_id)))
        return {
            "core.hermitian_exp.calls_per_op": calls("core.hermitian_exp") / n_ops,
            "core.hermitian_exp.self_s": self_s("core.hermitian_exp"),
            "core.hermitian_exp.d3_sum": value("core.hermitian_exp") / n_ops,
            "core.apply.self_s": self_s("core.apply"),
            "core.fidelity.self_s": self_s("core.fidelity"),
            "gates.apply_sequence.calls_per_op": calls("gates.apply_sequence") / n_ops,
            "gates.apply_sequence.self_s": self_s("gates.apply_sequence"),
            "gates.step_unitary.self_s": self_s("gates.step_unitary"),
            "gates.rotation_unitary.self_s": self_s("gates.rotation_unitary"),
            "gates.squeeze_pair_unitary.self_s": self_s("gates.squeeze_pair_unitary"),
            "gates.unflatten_params.self_s": self_s("gates.unflatten_params"),
            "gates.dense_exp_per_step": ratio(calls("core.hermitian_exp"),
                                              calls("gates.step_unitary")),
            "optimizer.objective.calls_per_op": calls("optimizer.objective") / n_ops,
            "optimizer.objective.self_s": self_s("optimizer.objective"),
            "optimizer.nelder_mead.self_s": self_s("optimizer.nelder_mead"),
            "optimizer.nelder_mead.calls_per_op": calls("optimizer.nelder_mead") / n_ops,
            "optimizer.improving_round_ratio": ratio(value("optimizer.random_restart_search"),
                                                     calls("optimizer.nelder_mead")),
            "targets.make_target.calls_per_op": calls("targets.make_target") / n_ops,
            "targets.make_target.self_s": self_s("targets.", exact=False),
            "wigner.clebsch_gordan.calls": cold_cg,
            "wigner.spherical_wigner.self_s": self_s("wigner.spherical_wigner"),
            "wigner.multipole_coefficients.self_s": self_s("wigner.multipole_coefficients"),
            "wigner.planar_wigner.self_s": self_s("wigner.planar_wigner"),
            "wigner.export_grid.self_s": self_s("wigner.export_grid"),
            "wigner.export_grid.bytes": value("wigner.export_grid") / n_ops,
            "algebra.lie_closure.self_s": self_s("algebra.lie_closure"),
            "algebra.lie_closure.reached_dimension": value("algebra.lie_closure") / n_ops,
            "algebra.trotter.self_s": self_s("algebra.trotter_", exact=False),
            "algebra.synthesis_by_powers.self_s": self_s("algebra.synthesis_by_powers"),
            "seqfile.load_sequence_file.self_s": self_s("seqfile.load_sequence_file"),
            "seqfile.record_save.self_s": self_s("seqfile.record_save"),
            "seqfile.record_save.bytes": value("seqfile.record_save") / n_ops,
            "cli.overhead_s": self_s("cli.", exact=False),
            "trace.spans_per_op": float(np.count_nonzero(warm)) / n_ops,
        }
