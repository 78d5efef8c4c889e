"""Span tracer that wraps the qensembles layers from outside the package.

Every public function of a layer module, every public method (and __init__)
of a public class defined there, scipy's ``linprog`` as bound in
``qensembles.metrics`` and numpy's ``eigh``/``eigvalsh`` are replaced by a
wrapper that records one span per call: group, start, end, parent span and
CLI command id. The replacement covers every module-namespace binding of the
function (``experiments`` does ``from .metrics import d_ehs``) and every
module-level dict that holds it (``EXPERIMENTS``, ``REPROS``).
``uninstall`` puts every original back and verifies that no wrapper is left.

Spans stay in memory; ``summarize`` turns them into per-layer metrics and
``save`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "serialize", "experiments", "randomgen", "ensembles", "linalg",
          "metrics", "channels", "energy", "bounds")

# (layer, name) -> group; every other wrapped callable of a layer is in the
# group named after the layer itself.
PARTS = {
    ("metrics", "d_ehs"): "metrics.d_ehs",
    ("metrics", "linprog"): "metrics.lp",
    ("metrics", "kr_distance"): "metrics.kr",
    ("metrics", "d_kantorovich"): "metrics.transport",
    ("metrics", "solve_transport"): "metrics.transport",
    ("metrics", "kr_modified"): "metrics.transport",
    ("metrics", "d0"): "metrics.d0",
    ("linalg", "check_hermitian"): "linalg.check",
    ("linalg", "check_density"): "linalg.check",
    ("linalg", "check_pure"): "linalg.check",
    ("linalg", "eigh"): "linalg.eig",
    ("linalg", "eigvalsh"): "linalg.eig",
    ("channels", "poisson_entropy"): "channels.special",
    ("channels", "coherent_state"): "channels.special",
    ("channels", "displacement_operator"): "channels.displacement",
    ("channels", "KrausChannel.apply"): "channels.apply",
    ("channels", "KrausChannel.apply_adjoint"): "channels.apply",
    ("channels", "KrausChannel.apply_ensemble"): "channels.apply",
    ("channels", "aoe"): "channels.entropy",
    ("channels", "holevo_chi"): "channels.entropy",
    ("channels", "KrausChannel.__init__"): "channels.build",
    ("channels", "KrausChannel.compose"): "channels.build",
    ("channels", "mix_channels"): "channels.build",
    ("channels", "identity_channel"): "channels.build",
    ("channels", "erasure_channel"): "channels.build",
    ("channels", "mix_with_state"): "channels.build",
    ("channels", "fock_dephasing"): "channels.build",
    ("channels", "choi_matrix"): "channels.build",
    ("energy", "solve_gibbs"): "energy.gibbs",
    ("energy", "passive_energy"): "energy.passive",
    ("energy", "avg_passive_energy"): "energy.passive",
    ("energy", "truncated_passive_energy"): "energy.passive",
}

GROUPS = tuple(dict.fromkeys(LAYERS + tuple(PARTS.values())))
GROUP_INDEX = {g: i for i, g in enumerate(GROUPS)}
LAYER_OF_GROUP = [g.split(".")[0] for g in GROUPS]

# Counters that must repeat exactly across two traced passes of one seed.
EXACT_COUNTERS = ("metrics.lp.calls", "metrics.lp.nit", "metrics.d_ehs.rounds_mean",
                  "metrics.d_ehs.rounds_max", "linalg.eig.calls", "linalg.check.calls")

_MARK = "__perfbench_original__"


def _sparse_nbytes(a):
    # CSR/CSC/COO: data plus index arrays; dense arrays count in full
    total = 0
    for attr in ("data", "indices", "indptr", "row", "col"):
        part = getattr(a, attr, None)
        if isinstance(part, np.ndarray):
            total += part.nbytes
    return total


def _matrix_nbytes(a):
    if a is None:
        return 0
    if hasattr(a, "tocsr"):
        return _sparse_nbytes(a)
    return np.asarray(a).nbytes


class Tracer:
    """Installs span wrappers on the qensembles layers; one tracer per run."""

    def __init__(self, groups=None):
        # groups=None wraps every layer; a set restricts the wrappers to it
        self.only = None if groups is None else set(groups)
        self.spans = []      # [group, start, end, parent, command] per span
        self.stack = []
        self.command = -1
        self.dehs = []       # (iterations, gap, tol) per d_ehs call
        self.lp = []         # (nit, matrix bytes) per linprog call
        self.records = 0     # records returned by experiment functions
        self.report_bytes = 0
        self._undo = []      # (container, key, original) per replaced binding

    # -- recording --------------------------------------------------------

    def reset(self):
        # cleared in place: the installed wrappers hold these lists
        self.spans.clear()
        self.stack.clear()
        self.command = -1
        self.dehs.clear()
        self.lp.clear()
        self.records = 0
        self.report_bytes = 0

    def _wrap(self, fn, group, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                tracer.command += 1
            idx = len(spans)
            span = [group, clock(), 0.0, stack[-1] if stack else -1, tracer.command]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _post_dehs(self, sig):
        def post(args, kwargs, sol):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.dehs.append((int(sol.iterations), float(sol.gap),
                              float(bound.arguments["tol"])))
        return post

    def _post_linprog(self, args, kwargs, res):
        nbytes = _matrix_nbytes(kwargs.get("A_ub")) + _matrix_nbytes(kwargs.get("A_eq"))
        self.lp.append((int(res.nit), nbytes))

    def _post_experiment(self, args, kwargs, result):
        self.records += len(result.records)

    def _post_report(self, args, kwargs, text):
        self.report_bytes += len(text.encode("utf-8"))

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(layer, name, owner, attr, function) for every callable to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"qensembles.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((layer, name, mod, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr != "__init__":
                            continue
                        if isinstance(member, (classmethod, staticmethod)):
                            member = member.__func__
                        if inspect.isfunction(member):
                            out.append((layer, f"{name}.{attr}", obj, attr, member))
        metrics = importlib.import_module("qensembles.metrics")
        out.append(("metrics", "linprog", metrics, "linprog", metrics.linprog))
        for name in ("eigh", "eigvalsh"):
            out.append(("linalg", name, np.linalg, name, getattr(np.linalg, name)))
        return out

    def _post_for(self, group, name, fn):
        if group == "metrics.d_ehs":
            return self._post_dehs(inspect.signature(fn))
        if group == "metrics.lp":
            return self._post_linprog
        if group == "experiments" and name.split("_")[0] in ("verify", "repro"):
            return self._post_experiment
        if name in ("reports_to_json", "reports_to_csv"):
            return self._post_report
        return None

    def _replace(self, container, key, new, original):
        if isinstance(container, dict):
            container[key] = new
            self._undo.append((container, key, original))
        else:
            raw = inspect.getattr_static(container, key)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(new)
                original = raw
            setattr(container, key, new)
            self._undo.append((container, key, original))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, name, owner, attr, fn in self._targets():
            group = PARTS.get((layer, name), layer)
            if self.only is not None and group not in self.only:
                continue
            wrapper = self._wrap(fn, GROUP_INDEX[group], self._post_for(group, name, fn))
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.ismodule(owner) and owner.__name__.startswith("qensembles"):
                continue  # module bindings are replaced by the sweep below
            self._replace(owner, attr, wrapper, fn)
        for mod in self._package_modules():
            space = vars(mod)
            for key, val in list(space.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._replace(space, key, hit[1], val)
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._replace(val, k, hit[1], v)

    @staticmethod
    def _package_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "qensembles" or n.startswith("qensembles."))]

    def uninstall(self):
        """Restore every replaced binding; return the bindings still wrapped."""
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo = []
        return leftover_wrappers()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        left = self.uninstall()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")

    # -- results ----------------------------------------------------------

    def summarize(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(GROUPS)
        calls = [0] * n
        child = [0.0] * len(self.spans)
        dehs_ms = []
        d_ehs = GROUP_INDEX["metrics.d_ehs"]
        for group, start, end, parent, _ in self.spans:
            dur = end - start
            calls[group] += 1
            if parent >= 0:
                child[parent] += dur
            if group == d_ehs:
                dehs_ms.append(1e3 * dur)
        self_s = [0.0] * n
        for (group, start, end, _, _), c in zip(self.spans, child):
            self_s[group] += (end - start) - c

        out = {}
        for layer in LAYERS:
            idx = [i for i, l in enumerate(LAYER_OF_GROUP) if l == layer]
            out[f"{layer}.calls"] = sum(calls[i] for i in idx)
            out[f"{layer}.self_s"] = sum(self_s[i] for i in idx)
        for g in GROUPS:
            if "." in g:
                out[f"{g}.calls"] = calls[GROUP_INDEX[g]]
                out[f"{g}.self_s"] = self_s[GROUP_INDEX[g]]

        rounds = [r for r, _, _ in self.dehs]
        out["metrics.d_ehs.call_ms_p50"] = _quantile(dehs_ms, 0.50)
        out["metrics.d_ehs.call_ms_p99"] = _quantile(dehs_ms, 0.99)
        out["metrics.d_ehs.rounds_mean"] = statistics.fmean(rounds) if rounds else 0.0
        out["metrics.d_ehs.rounds_max"] = max(rounds, default=0)
        out["metrics.d_ehs.gap_max"] = max((g for _, g, _ in self.dehs), default=0.0)
        out["metrics.lp.nit"] = sum(nit for nit, _ in self.lp)
        out["metrics.lp.matrix_mb"] = sum(b for _, b in self.lp) / 1e6
        eig = out["linalg.eig.calls"]
        out["linalg.check.per_kernel"] = out["linalg.check.calls"] / eig if eig else 0.0
        out["experiments.records"] = self.records
        out["serialize.bytes"] = self.report_bytes
        out["trace.spans"] = len(self.spans)
        return out

    def gap_failures(self):
        """d_ehs calls whose certified gap exceeds the tolerance they were given."""
        return [(r, g, t) for r, g, t in self.dehs if not g <= t]

    def save(self, path):
        """Write the spans as arrays: group index, start, end, parent, command."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, groups=np.array(GROUPS), group=arr[:, 0].astype(np.int16),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64),
                            command=arr[:, 4].astype(np.int32))


def leftover_wrappers():
    """Names of bindings in the package, its classes or numpy.linalg still wrapped."""
    owners = {id(m): (m.__name__, m) for m in Tracer._package_modules()}
    owners[id(np.linalg)] = ("numpy.linalg", np.linalg)
    for _, mod in list(owners.values()):
        for val in vars(mod).values():
            if inspect.isclass(val) and val.__module__.startswith("qensembles"):
                owners.setdefault(id(val), (f"{val.__module__}.{val.__qualname__}", val))
    left = []
    for owner_name, owner in owners.values():
        for key, val in vars(owner).items():
            if isinstance(val, (classmethod, staticmethod)):
                val = val.__func__
            if hasattr(val, _MARK):
                left.append(f"{owner_name}.{key}")
            elif isinstance(val, dict) and not key.startswith("__"):
                left.extend(f"{owner_name}.{key}[{k!r}]" for k, v in val.items()
                            if hasattr(v, _MARK))
    return left


def _quantile(values, q):
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))
