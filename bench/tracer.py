"""Span tracer that wraps the package's public functions from outside.

The package imports functions by name (``from .specfun import airy_amp``),
so a function is reachable through several module bindings.  ``Tracer``
replaces every binding of each traced function, in every package module,
with one wrapper, and puts the originals back on exit.

A span is ``(id, name, parent, start, end, thread, work, tag, error)``.
Parents come from a thread-local stack; a span opened with an empty stack
on a worker thread belongs to the innermost open ``scansim.scan`` span,
because scan worker threads run on behalf of that scan.  Spans stay in
memory until ``take`` hands them to the analysis in ``summarize``.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

# Traced functions per layer; the layer names are the package modules.
TRACED = {
    "specfun": ("airy_amp", "bessel_j0", "bessel_j1"),
    "optics": ("angular_frequency", "sigma_p_sq", "r0", "eta0_inv_sq",
               "airy_radius", "crossover_waist", "pump_focus"),
    "psf": ("psf_widefield", "psf_confocal", "psf_twin", "fwhm"),
    "coincidence": ("kernel_field", "integrate_sample", "amplitude",
                    "coincidence_rate", "gate", "delay_window"),
    "scansim": ("scan", "min_resolvable_separation"),
    "cli": ("main", "parse_run_config"),
}
RESPONSES = ("psf.psf_widefield", "psf.psf_confocal", "psf.psf_twin")
KERNELS = RESPONSES + ("coincidence.kernel_field",)
SAMPLE_KINDS = {"Delta": "delta", "TwoPoint": "two_point", "Slit": "slit",
                "Grating": "grating", "Raster": "raster"}
SERIES_CUTOFF = 12.0  # specfun's switch from the power series to Hankel


def _airy_work(args, kwargs):
    v = np.abs(np.asarray(args[0], dtype=float))
    series = int(np.count_nonzero(v <= SERIES_CUTOFF))
    return (series, v.size - series), None


def _size_work(args, kwargs):
    return np.size(args[0]), None


def _kernel_work(args, kwargs):
    return np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size, None


def _scan_work(args, kwargs):
    plan, sample = args[0], args[2]
    geometry = plan.geometry
    points = geometry.samples if hasattr(geometry, "samples") else geometry.nx * geometry.ny
    return points, f"{plan.instrument.value}.{SAMPLE_KINDS[type(sample).__name__]}"


WORK = {
    "specfun.airy_amp": _airy_work,
    "psf.psf_widefield": _size_work,
    "psf.psf_confocal": _size_work,
    "psf.psf_twin": _size_work,
    "coincidence.kernel_field": _kernel_work,
    "scansim.scan": _scan_work,
}


class Tracer:
    """Context manager that records spans at the layer boundaries."""

    def __init__(self, modules):
        """``modules``: the package, then its layer modules."""
        self._modules = list(modules)
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_scans: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules[1:]}
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(by_layer[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in self._modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def _wrap(self, name, fn):
        spans, ids, local = self._spans, self._ids, self._local
        work_of = WORK.get(name)
        is_scan = name == "scansim.scan"
        is_fwhm = name == "psf.fwhm"
        open_scans = self._open_scans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (open_scans[-1] if open_scans else None)
            sid = next(ids)
            work = tag = evals = None
            if work_of is not None:
                work, tag = work_of(args, kwargs)
            if is_fwhm and callable(args[0]):
                evals = [0]
                profile = args[0]

                def counted(y):
                    evals[0] += 1
                    return profile(y)

                args = (counted,) + args[1:]
            stack.append(sid)
            if is_scan:
                open_scans.append(sid)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                if is_scan:
                    open_scans.pop()
                stack.pop()
                if evals is not None:
                    work = evals[0]
                spans.append((sid, name, parent, start, end,
                              threading.get_ident(), work, tag, error))

        return traced


# ============================================================================
# analysis
# ============================================================================

def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover.

    Children on several threads may overlap one another; their union is
    subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append((span[3], span[4]))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        kids = children.get(sid)
        out[sid] = (end - start) - (covered_length(kids, start, end) if kids else 0.0)
    return out


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, work, total and self seconds, errors by type.

    Also, under keys starting with ``_``: kernel points evaluated inside
    ``integrate_sample``, busy time of the spans a scan caused, calls per
    (parent name, child name), and errors per (layer, type) counted where
    they were raised, not again in every span they passed through."""
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    names: dict[str, dict] = {}
    inside_integral: dict[int, bool] = {}

    def under_integral(sid) -> bool:
        path = []
        while sid is not None and sid not in inside_integral:
            span = by_id.get(sid)
            if span is None:
                break
            if span[1] == "coincidence.integrate_sample":
                inside_integral[sid] = True
                break
            path.append(sid)
            sid = span[2]
        found = inside_integral.get(sid, False) if sid is not None else False
        for p in path:
            inside_integral[p] = found
        return found

    scan_busy = 0.0
    kernel_points_in_integrals = 0
    child_calls: dict[tuple[str, str], int] = {}
    raised_below: set[tuple[int, str]] = set()
    for span in spans:
        if span[8] is not None and span[2] is not None:
            raised_below.add((span[2], span[8]))
    origin_errors: dict[tuple[str, str], int] = {}
    for span in spans:
        sid, name, parent, start, end, _, work, tag, error = span
        entry = names.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0,
                                        "total_s": 0.0, "errors": {}, "tags": {}})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        entry["total_s"] += end - start
        if isinstance(work, tuple):
            parts = entry.setdefault("work_parts", [0] * len(work))
            entry["work_parts"] = [a + b for a, b in zip(parts, work)]
            entry["work"] += sum(work)
        elif work is not None:
            entry["work"] += work
        if error is not None:
            entry["errors"][error] = entry["errors"].get(error, 0) + 1
            if (sid, error) not in raised_below:
                key = (name.split(".", 1)[0], error)
                origin_errors[key] = origin_errors.get(key, 0) + 1
        if tag is not None:
            t = entry["tags"].setdefault(tag, {"calls": 0, "work": 0, "total_s": 0.0})
            t["calls"] += 1
            t["work"] += work
            t["total_s"] += end - start
        parent_name = by_id[parent][1] if parent in by_id else None
        if parent_name is not None:
            key = (parent_name, name)
            child_calls[key] = child_calls.get(key, 0) + 1
        if name in KERNELS and parent is not None and under_integral(parent):
            kernel_points_in_integrals += work
        if parent_name == "scansim.scan":
            scan_busy += end - start
    names["_kernel_points_in_integrals"] = kernel_points_in_integrals
    names["_scan_busy_s"] = scan_busy
    names["_child_calls"] = child_calls
    names["_origin_errors"] = origin_errors
    return names
