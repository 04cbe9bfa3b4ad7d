"""Span tracing of the diskxray layers, installed from outside the package.

The tracer wraps each layer module's public functions, plus the CLI command
handlers, the verification suites and ``CoefficientField.evaluate``.  It
patches every diskxray module that holds a reference to an original, so a
function imported by name (``svdcore.gegenbauer_L``, ``zernike.jacobi_eval``)
is traced at each call site.  Installation is scoped to one traced request;
untraced requests run the unpatched code.

Spans (name, start, end, parent, request) are kept in memory as columns and
written out at the end.  Self time is a span's duration minus the time its
child spans cover, accumulated online; since the CLI is single-threaded,
children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["LAYERS", "UNTRACED", "Tracer"]

LAYERS = ("specfun", "quadrature", "geometry", "zernike", "xray", "svdcore", "ccd", "verify", "cli")

# Scalar helpers called 10^5 times per verify request: a span each would cost
# more than the work.  They are leaves, so their time stays in the caller's
# self time.
UNTRACED = frozenset(
    {"specfun.ln_gamma", "specfun.ln_beta", "specfun.beta", "specfun.ln_binomial", "specfun.as_gamma"}
)

_SUITES = ("eigen", "kernel", "funcrel", "asym", "ladder", "ccd")


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_analyze(fn, args, kwargs, out):
    return {"svdcore.analyze.coeffs": len(out)}


def _count_synthesize(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    rule = a["rule"]
    return {"svdcore.synthesize.mode_nodes": int(np.count_nonzero(a["field"].coeffs)) * rule.beta_count * rule.s_order}


def _count_evaluate(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"zernike.evaluate.mode_points": int(np.count_nonzero(a["self"].coeffs)) * int(np.size(out))}


def _count_sinogram_file(fn, args, kwargs, out):
    return {"xray.sinogram_bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# counts taken from call arguments and results, keyed by span name
COUNTERS = {
    "svdcore.analyze": _count_analyze,
    "svdcore.synthesize": _count_synthesize,
    "zernike.evaluate": _count_evaluate,
    "xray.read_sinogram": _count_sinogram_file,
    "xray.write_sinogram": _count_sinogram_file,
}

# calls whose allocation peak is measured by re-running the largest call of a
# request under tracemalloc, outside every span
PROBED = {"svdcore.analyze": "svdcore.analyze.coeffs", "zernike.evaluate": "zernike.evaluate.mode_points"}


class Tracer:
    """Records spans of the diskxray layers for the requests run under ``install``."""

    def __init__(self):
        self._mods = {name: importlib.import_module(f"diskxray.{name}") for name in LAYERS}
        self._targets = self._collect_targets()
        self._patches = []
        # span columns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name id, start, child time]
        self._request = -1
        # per-request aggregates
        self.requests: list[dict] = []
        self._largest: dict[str, tuple] = {}
        self.peaks_mib: dict[str, float] = {}

    def _collect_targets(self) -> dict:
        """Map each original function to its span name."""
        targets = {}
        for short, mod in self._mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(fn) and name not in UNTRACED:
                    targets[fn] = name
        for suite in _SUITES:
            targets[getattr(self._mods["verify"], f"_suite_{suite}")] = f"verify.{suite}"
        for command, fn in self._mods["cli"]._HANDLERS.items():
            targets[fn] = "cli." + command.replace("-", "_")
        return targets

    # -- installation --------------------------------------------------------

    def install(self, request: int) -> None:
        """Patch every reference to a traced function; spans go to ``request``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._request = request
        self.requests.append({"calls": defaultdict(int), "self": defaultdict(float),
                              "total": defaultdict(float), "counts": defaultdict(int)})
        self._largest = {}
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diskxray" or modname.startswith("diskxray.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        handlers = self._mods["cli"]._HANDLERS
        for command, fn in list(handlers.items()):
            self._patches.append((handlers, command, fn))
            handlers[command] = wrappers[fn]
        field_cls = self._mods["zernike"].CoefficientField
        evaluate = field_cls.__dict__["evaluate"]
        self._patches.append((field_cls, "evaluate", evaluate))
        field_cls.evaluate = self._wrap(evaluate, "zernike.evaluate")

    def uninstall(self) -> None:
        """Restore every patched reference, then measure allocation peaks."""
        for owner, attr, val in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)
        self._patches = []
        if self._stack:
            raise RuntimeError("spans left open at uninstall")
        for name, (fn, args, kwargs, _size) in self._largest.items():
            if name not in self.peaks_mib:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    self.peaks_mib[name] = tracemalloc.get_traced_memory()[1] / 2.0**20
                finally:
                    tracemalloc.stop()
        self._largest = {}

    @contextlib.contextmanager
    def request_span(self):
        """Record a root span named 'request' around the block."""
        self._open("request")
        try:
            yield
        finally:
            self._close()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, self._name_id(name), time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        sid, nid, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.span_id.append(sid)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_request.append(self._request)
        self.span_start.append(start)
        self.span_end.append(end)
        agg = self.requests[-1]
        name = self.names[nid]
        agg["calls"][name] += 1
        agg["self"][name] += duration - child
        agg["total"][name] += duration

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        probe = PROBED.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None:
                counts = counter(fn, args, kwargs, out)
                totals = tracer.requests[-1]["counts"]
                for key, value in counts.items():
                    totals[key] += value
                if probe is not None and counts[probe] > tracer._largest.get(name, (None, None, None, -1))[3]:
                    tracer._largest[name] = (fn, args, kwargs, counts[probe])
            return out

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span as columns of an .npz archive."""
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            request=np.frombuffer(self.span_request, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

