"""Spans and counters recorded around the package's public functions.

install() replaces each named function or method with a wrapper, in every
module namespace that holds it, so calls made between modules are seen too.
A span's self time is its duration minus the time of the spans it caused on
the same thread.  Stacks are kept per thread because the optimizer runs its
restarts in pool threads; a span whose caller waits on another thread (such
as certify.parallel_map) therefore counts that wait as self time.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
import weakref

import numpy as np

# (module, attribute path) of every traced layer boundary
LAYERS = [
    ("algebra", "eigh"), ("algebra", "matrix_function"), ("algebra", "trace"),
    ("algebra", "pair_trace"), ("algebra", "p_norm"),
    ("entropy", "entropy_vs_subalgebra"), ("entropy", "fisher_generator"),
    ("entropy", "bregman"), ("entropy", "fisher_derivation"),
    ("entropy", "monotone_metric"),
    ("models", "semigroup_apply"), ("models", "ConditionalExpectation.apply"),
    ("models", "GeneratorHandle.apply"), ("models", "GeneratorHandle.spectral"),
    ("models", "GeneratorHandle.plain_matrix"),
    ("certify", "minimize"), ("certify", "objective"),
    ("certify", "parallel_map"), ("certify", "sobolev_ratio"),
    ("certify", "estimate_constant"),
    ("doi", "cone_test"), ("doi", "schur_q"), ("doi", "superoperator_matrix"),
    ("channels", "QuantumChannel.apply"),
    ("suite", "suite_run"), ("suite", "reports_to_csv"),
    ("cli", "run"), ("cli", "validate_config"),
]

COUNTERS = [
    ("certify.minimize.nfev", "count"), ("certify.minimize.nit", "count"),
    ("certify.minimize.converged", "count"), ("certify.workers", "count"),
    ("certify.ratio_evals", "count"), ("certify.rejected", "count"),
    ("models.dense_coeff_dim_max", "count"), ("models.dense_bytes", "B"),
]

MODULES = ["algebra", "functions", "errors", "channels", "doi", "entropy",
           "models", "certify", "suite", "cli"]


def _size_tag(args):
    """'m<sites>k<dim>' of the first argument that carries an algebra."""
    for a in args:
        alg = getattr(a, "algebra", None)
        if alg is not None and hasattr(alg, "n_sites"):
            return f"m{alg.n_sites}k{alg.uniform_dim}"
    return None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # per-thread {name: [calls, self_s]}
        self._sizes = {}    # (name, tag) -> list of span durations
        self.counters = {name: 0 for name, _ in COUNTERS}
        self._dense_seen = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = {}
            self._local.stack = []
            with self._lock:
                self._threads.append(st)
        return st, self._local.stack

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stats, stack = tracer._state()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = stats.setdefault(name, [0, 0.0])
                rec[0] += 1
                rec[1] += dt - child
                tag = _size_tag(args)
                if tag is not None:
                    with tracer._lock:
                        tracer._sizes.setdefault((name, tag), []).append(dt)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def add(self, name, value):
        with self._lock:
            self.counters[name] += value

    def _dense(self, kind, gen, arrays):
        seen = self._dense_seen.setdefault(gen, set())
        if kind in seen:
            return
        seen.add(kind)
        with self._lock:
            self.counters["models.dense_bytes"] += sum(
                int(a.nbytes) for a in arrays if isinstance(a, np.ndarray))
            self.counters["models.dense_coeff_dim_max"] = max(
                self.counters["models.dense_coeff_dim_max"],
                int(gen.algebra.coeff_dim))

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every traced boundary of sobolev_lab in place."""
        mods = {m: importlib.import_module(f"sobolev_lab.{m}") for m in MODULES}
        pkg = importlib.import_module("sobolev_lab")
        certify = mods["certify"]
        original_minimize = certify.minimize
        replace = {}

        def minimize(fun, x0, *args, **kwargs):
            res = original_minimize(self._wrap("certify.objective", fun),
                                    x0, *args, **kwargs)
            self.add("certify.minimize.nfev", int(res.nfev))
            self.add("certify.minimize.nit", int(getattr(res, "nit", 0)))
            self.add("certify.minimize.converged", int(bool(res.success)))
            return res

        def on_estimate(args, res):
            self.add("certify.ratio_evals", int(res.n_samples))
            self.add("certify.rejected", int(res.n_rejected))

        def on_parallel(args, res):
            self.counters["certify.workers"] = max(
                self.counters["certify.workers"], int(certify.worker_count()))

        hooks = {
            "estimate_constant": on_estimate,
            "parallel_map": on_parallel,
            "GeneratorHandle.plain_matrix":
                lambda args, T: self._dense("plain", args[0], [T]),
            "GeneratorHandle.spectral":
                lambda args, eig: self._dense("spectral", args[0], eig),
        }
        for mod_name, attr in LAYERS:
            if attr == "objective":
                continue
            name = f"{mod_name}.{attr}"
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth),
                                              hooks.get(attr)))
                continue
            orig = getattr(mod, attr)
            if attr == "minimize":
                replace[orig] = self._wrap(name, minimize)
            else:
                replace[orig] = self._wrap(name, orig, hooks.get(attr))
        for mod in list(mods.values()) + [pkg]:
            for key, value in list(vars(mod).items()):
                if callable(value) and value in replace:
                    setattr(mod, key, replace[value])

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        with self._lock:
            totals = {}
            for st in self._threads:
                for name, (calls, self_s) in st.items():
                    rec = totals.setdefault(name, [0, 0.0])
                    rec[0] += calls
                    rec[1] += self_s
        out = {}
        for mod, attr in LAYERS:
            name = f"{mod}.{attr}"
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for name, unit in COUNTERS:
            out[name] = {"value": self.counters[name], "unit": unit}
        return out

    def size_medians(self):
        """{layer: {size tag: [calls, median span seconds]}}."""
        out = {}
        with self._lock:
            for (name, tag), durations in sorted(self._sizes.items()):
                out.setdefault(name, {})[tag] = [
                    len(durations), statistics.median(durations)]
        return out
