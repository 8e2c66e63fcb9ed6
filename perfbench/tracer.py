"""Span tracing for the traced run, installed from the benchmark's own files.

:meth:`Tracer.install` replaces the listed public functions of each layer
(module) of ``majorana_pt`` with wrappers, rebinds every name other modules
bound with ``from .x import y`` to the same wrappers, and wraps
``numpy.linalg.eig``.  Each wrapper records a span (id, parent, name, start,
end, thread, unit, op, error) in memory; :meth:`Tracer.write_spans` writes
them out when the run ends.  :meth:`Tracer.uninstall` restores every
original, so an untraced run executes the program exactly as users do.

A span's parent is the innermost open span of its thread.  A span that opens
in a worker thread with no open span of its own (the ``census_sweep`` thread
pool) takes the innermost open span of the main thread as its parent.  Self
time is a span's duration minus the union of the intervals its children
cover, so children running in parallel threads are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import threading
import time

import numpy as np

#: The public functions wrapped in each layer.
LAYERS = {
    "model": ("build_ssh", "build_majorana_ring", "decompose_blocks"),
    "spectral": ("eig", "detect_coalescence", "classify_modes",
                 "coalesced_eigenvalues", "pseudo_hermiticity_check", "match_multisets"),
    "bethe": ("solve_real_k", "solve_evanescent_pair", "zero_mode", "match_spectrum_to_roots"),
    "analysis": ("census_sweep",),
    "verify": ("run_criteria",),
    "serialize": ("dump_json", "atomic_write"),
}
#: CLI subcommands the workloads send; ``cli.main`` spans are named by them.
CLI_SUBCOMMANDS = ("spectrum", "census", "bethe", "zero-mode", "sweep")
#: The criteria of ``verify.run_criteria``, in suite order.
CRITERIA = ("six-site-mu2", "six-site-mu-half", "mode-census", "zero-mode-closed-form",
            "bethe-spectrum-equivalence", "evanescent-asymptotics", "block-decomposition",
            "common-part", "scattering-gap-bound", "pseudo-hermiticity-pt")
NUMPY_EIG = "numpy.linalg.eig"


def metric_specs() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``, in output order."""
    specs = []
    for layer, names in LAYERS.items():
        for fn in names:
            specs += [
                {"name": f"{layer}.{fn}.calls", "unit": "count", "better": "lower"},
                {"name": f"{layer}.{fn}.self_s", "unit": "s", "better": "lower"},
                {"name": f"{layer}.{fn}.errors", "unit": "count", "better": "lower"},
            ]
    specs += [{"name": f"verify.{cid}.s", "unit": "s", "better": "lower"} for cid in CRITERIA]
    specs += [{"name": f"cli.{sub}.s", "unit": "s", "better": "lower"} for sub in CLI_SUBCOMMANDS]
    specs += [
        {"name": "serialize.bytes_written", "unit": "bytes", "better": "lower"},
        {"name": f"{NUMPY_EIG}.calls", "unit": "count", "better": "lower"},
        {"name": f"{NUMPY_EIG}.self_s", "unit": "s", "better": "lower"},
        {"name": f"{NUMPY_EIG}.dim3_sum", "unit": "count", "better": "lower"},
        {"name": "spectral.eig.distinct_frac", "unit": "ratio", "better": "higher"},
        {"name": f"{NUMPY_EIG}.per_spectral_eig", "unit": "ratio", "better": "lower"},
        {"name": "bethe.solve_real_k.ok_frac", "unit": "ratio", "better": "higher"},
        {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
    ]
    return specs


class Tracer:
    """Collects spans and counters; all figures are reported per unit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.unit = -1
        self.op = -1
        self._paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._eig_inputs: set[bytes] = set()
        self.counters = {"distinct_eig_inputs": 0, "dim3_sum": 0, "bytes_written": 0}
        self.criteria_s = {cid: 0.0 for cid in CRITERIA}
        self.units = 0

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording a span named ``name`` (or ``name(args)``) around ``fn``.

        ``before(args, kwargs)`` and ``after(result)`` run outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = len(self.spans)
                span = {"id": span_id, "parent": parent,
                        "name": name(args) if callable(name) else name,
                        "thread": threading.get_ident(), "unit": self.unit, "op": self.op,
                        "error": False}
                self.spans.append(span)
            stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__perfbench_traced__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def begin_unit(self, index: int) -> None:
        self.unit = index
        self.units += 1
        self._eig_inputs = set()

    # -- counters fed by wrappers -------------------------------------------

    def _count_eig_input(self, args, kwargs):
        a = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["a"], dtype=complex))
        digest = hashlib.blake2b(a.tobytes(), digest_size=16)
        digest.update(repr(a.shape).encode())
        with self._lock:
            if digest.digest() not in self._eig_inputs:
                self._eig_inputs.add(digest.digest())
                self.counters["distinct_eig_inputs"] += 1

    def _count_lapack(self, args, kwargs):
        a = np.asarray(args[0] if args else kwargs["a"])
        with self._lock:
            self.counters["dim3_sum"] += int(a.shape[-1]) ** 3 * int(np.prod(a.shape[:-2], dtype=int))

    def _count_bytes(self, args, kwargs):
        content = args[1] if len(args) > 1 else kwargs["content"]
        with self._lock:
            self.counters["bytes_written"] += len(content.encode())

    def _count_criteria(self, results):
        for result in results:
            if result.criterion_id in self.criteria_s:
                self.criteria_s[result.criterion_id] += result.elapsed

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        before = {"spectral.eig": self._count_eig_input,
                  "serialize.atomic_write": self._count_bytes}
        after = {"verify.run_criteria": self._count_criteria}
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"majorana_pt.{layer}")
            for fn_name in names:
                label = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                wrappers[original] = self.wrap(label, original, before.get(label), after.get(label))
        cli = importlib.import_module("majorana_pt.cli")
        wrappers[cli.main] = self.wrap(
            lambda args: f"cli.{args[0][0]}" if args and args[0] else "cli.main", cli.main)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "majorana_pt" and not mod_name.startswith("majorana_pt."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
        self._set(np.linalg, "eig", self.wrap(NUMPY_EIG, np.linalg.eig, self._count_lapack))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        result = []
        for span in self.spans:
            start, end = span["start"], span["end"]
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span["id"], ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append(end - start - covered)
        return result

    def metrics(self, traced_unit_s: list[float], untraced_unit_s: list[float]) -> dict:
        """Per-layer metrics, each a total per unit, as ``{name: value}``."""
        units = max(self.units, 1)
        calls: dict[str, int] = {}
        errors: dict[str, int] = {}
        self_s: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            name = span["name"]
            calls[name] = calls.get(name, 0) + 1
            errors[name] = errors.get(name, 0) + span["error"]
            self_s[name] = self_s.get(name, 0.0) + own
            inclusive[name] = inclusive.get(name, 0.0) + span["end"] - span["start"]
        out = {}
        for layer, names in LAYERS.items():
            for fn in names:
                label = f"{layer}.{fn}"
                out[f"{label}.calls"] = calls.get(label, 0) / units
                out[f"{label}.self_s"] = self_s.get(label, 0.0) / units
                out[f"{label}.errors"] = errors.get(label, 0) / units
        for cid in CRITERIA:
            out[f"verify.{cid}.s"] = self.criteria_s[cid] / units
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.s"] = inclusive.get(f"cli.{sub}", 0.0) / units
        eig_calls = calls.get("spectral.eig", 0)
        lapack_calls = calls.get(NUMPY_EIG, 0)
        real_k = calls.get("bethe.solve_real_k", 0)
        out["serialize.bytes_written"] = self.counters["bytes_written"] / units
        out[f"{NUMPY_EIG}.calls"] = lapack_calls / units
        out[f"{NUMPY_EIG}.self_s"] = self_s.get(NUMPY_EIG, 0.0) / units
        out[f"{NUMPY_EIG}.dim3_sum"] = self.counters["dim3_sum"] / units
        out["spectral.eig.distinct_frac"] = (
            self.counters["distinct_eig_inputs"] / eig_calls if eig_calls else 0.0)
        out[f"{NUMPY_EIG}.per_spectral_eig"] = lapack_calls / eig_calls if eig_calls else 0.0
        out["bethe.solve_real_k.ok_frac"] = (
            (real_k - errors.get("bethe.solve_real_k", 0)) / real_k if real_k else 0.0)
        out["trace.overhead_frac"] = (
            statistics.median(traced_unit_s) / statistics.median(untraced_unit_s) - 1.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
