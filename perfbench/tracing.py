"""Spans around polyflat's layers, recorded from outside the package.

``Tracer.install`` replaces the public functions of each polyflat module
(and a few methods and private helpers that carry named per-layer metrics)
with wrappers, in every polyflat namespace that binds them, so that callers
which imported a name directly are traced too.  A wrapper records a span
(name, start, end, parent) only inside an item's root span; calls made by the
benchmark's own set-up and oracle checks pass straight through.

Spans are kept in flat arrays in memory and summarised when the run ends.
Self time is a span's duration minus the durations of its children; the
benchmark's root and harness time make up the rest, so the self times of all
layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# modules whose public functions are wrapped, by layer name
LAYERS = (
    "intlattice", "polytope", "potential", "polynomial", "dually_flat",
    "boundary", "mixture", "verify", "cli", "jsonio",
)
# per-value formatting helpers, called once per emitted number
SKIP = {"jsonio": {"canonical", "format_float", "fraction_str"}}
# span names that differ from "<layer>.<function>"
RENAME = {
    ("polytope", "_enumerate_vertices"): "polytope.vertices",
    ("dually_flat", "_newton_inverse"): "dually_flat.newton",
    ("boundary", "pythagoras_boundary_foot"): "boundary.pythagoras",
    ("boundary", "pythagoras_interior_foot"): "boundary.pythagoras",
    ("jsonio", "parse_polytope"): "jsonio.parse",
    ("jsonio", "parse_potential"): "jsonio.parse",
    ("jsonio", "parse_mixture"): "jsonio.parse",
}
# methods wrapped on their classes: (module, class, method, span name)
METHODS = (
    ("potential", "SymplecticPotential", "value", "potential.value"),
    ("potential", "SymplecticPotential", "value_extended", "potential.value_extended"),
    ("potential", "SymplecticPotential", "gradient", "potential.gradient"),
    ("potential", "SymplecticPotential", "hessian", "potential.hessian"),
    ("polynomial", "Polynomial", "__call__", "polynomial.eval"),
    ("polynomial", "Polynomial", "gradient", "polynomial.gradient"),
    ("polynomial", "Polynomial", "hessian", "polynomial.hessian"),
    ("polynomial", "Polynomial", "partial", "polynomial.partial"),
    ("polynomial", "Polynomial", "compose_affine", "polynomial.compose_affine"),
    ("polytope", "Polytope", "facet_values", "polytope.facet_values"),
    ("polytope", "FaceChart", "to_ambient", "polytope.to_ambient"),
    ("polytope", "FaceChart", "to_chart", "polytope.to_chart"),
)


class Tracer:
    """Spans of one traced run, in flat arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.failures = Counter()
        self.zero_evals = 0
        self.unconverged = 0
        self.restricted = set()  # (root span, polytope, face) of restrict_polytope calls
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, observe=None):
        sid = self._id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, failures = self.stack, self.failures

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            i = len(start)
            span_name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf_counter()
                stack.pop()
                failures[name] += 1
                raise
            end[i] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_restrict(self, args, result):
        P, chart = args[0], args[1]
        self.restricted.add((self.stack[1], P, chart.face_active))

    def _observe_eval(self, args, result):
        if not args[0].terms:
            self.zero_evals += 1

    def _observe_newton(self, args, result):
        if result[2] != "converged":
            self.unconverged += 1

    def install(self):
        """Wrap every traced function in each polyflat namespace that binds it."""
        observers = {
            "polytope.restrict_polytope": self._observe_restrict,
            "polynomial.eval": self._observe_eval,
            "dually_flat.newton": self._observe_newton,
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"polyflat.{layer}"]
            for attr, fn in vars(module).items():
                public = not attr.startswith("_") and attr not in SKIP.get(layer, ())
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if public or (layer, attr) in RENAME:
                    name = RENAME.get((layer, attr), f"{layer}.{attr}")
                    wrappers[id(fn)] = (fn, self._wrap(fn, name, observers.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "polyflat" and not modname.startswith("polyflat."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"polyflat.{layer}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, observers.get(name)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def begin(self, name):
        """Open an item's root span; returns its index for ``finish``."""
        i = len(self.start)
        self.span_name.append(self._id(f"bench.{name}"))
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def summary(self, wall_s):
        """Per-layer metrics from the recorded spans, for a traced section of wall_s."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)

        # hessian and gradient calls made inside a Newton solve
        newton = self._ids.get("dually_flat.newton", -1)
        up = np.where(child, parent, 0)
        in_newton = child & (names[up] == newton)
        while True:  # one nesting level per round
            deeper = in_newton | (child & in_newton[up])
            if np.array_equal(deeper, in_newton):
                break
            in_newton = deeper

        def inside(name):
            sid = self._ids.get(name, -1)
            return int(np.count_nonzero(in_newton & (names == sid)))

        def count(name):
            sid = self._ids.get(name)
            return int(calls[sid]) if sid is not None else 0

        def own_s(name):
            sid = self._ids.get(name)
            return float(self_s[sid]) if sid is not None else 0.0

        layer_s = Counter()
        for sid, name in enumerate(self.names):
            layer_s[name.split(".")[0]] += float(self_s[sid])
        roots = float(dur[~child].sum())
        layer_s["bench"] += wall_s - roots  # harness time between items

        solves = count("dually_flat.newton")
        iters = inside("potential.hessian")
        restrict_calls = count("polytope.restrict_polytope")
        m = {}
        for layer in LAYERS + ("bench",):
            m[f"{layer}.self_s"] = layer_s[layer]
        for fn in ("integer_kernel", "snf_diagonal", "cone_rays", "solve_square",
                   "strict_interior_point"):
            m[f"intlattice.{fn}.calls"] = count(f"intlattice.{fn}")
        m["polytope.vertices.self_s"] = own_s("polytope.vertices")
        for fn in ("is_bounded", "face_chart", "restrict_polytope"):
            m[f"polytope.{fn}.calls"] = count(f"polytope.{fn}")
            m[f"polytope.{fn}.self_s"] = own_s(f"polytope.{fn}")
        m["polytope.validate_delzant.self_s"] = own_s("polytope.validate_delzant")
        m["polytope.restrict_polytope.calls_per_face"] = (
            restrict_calls / len(self.restricted) if self.restricted else 0.0
        )
        for fn in ("value", "gradient", "hessian", "value_extended"):
            m[f"potential.{fn}.calls"] = count(f"potential.{fn}")
        m["potential.restrict_potential.self_s"] = own_s("potential.restrict_potential")
        m["polynomial.eval.calls"] = count("polynomial.eval")
        m["polynomial.zero_eval.calls"] = self.zero_evals
        m["dually_flat.from_dual.calls"] = count("dually_flat.from_dual")
        m["dually_flat.from_dual.self_s"] = own_s("dually_flat.from_dual")
        m["dually_flat.from_dual.failures"] = self.failures["dually_flat.from_dual"]
        m["dually_flat.newton.calls"] = solves
        m["dually_flat.newton.unconverged"] = self.unconverged
        m["dually_flat.newton.iters_per_solve"] = iters / solves if solves else 0.0
        m["dually_flat.newton.gradients_per_iter"] = (
            inside("potential.gradient") / iters if iters else 0.0
        )
        for fn in ("bregman", "bregman_expanded"):
            m[f"dually_flat.{fn}.self_s"] = own_s(f"dually_flat.{fn}")
        m["dually_flat.bregman.calls"] = count("dually_flat.bregman")
        m["boundary.project_to_face.calls"] = count("boundary.project_to_face")
        m["boundary.project_to_face.self_s"] = own_s("boundary.project_to_face")
        m["boundary.project_to_face.failures"] = self.failures["boundary.project_to_face"]
        for fn in ("continuity_check", "pythagoras", "product_boundary_check"):
            m[f"boundary.{fn}.self_s"] = own_s(f"boundary.{fn}")
        m["boundary.limit_divergence.calls"] = count("boundary.limit_divergence")
        m["mixture.kl.calls"] = count("mixture.kl")
        m["mixture.kl.self_s"] = own_s("mixture.kl")
        m["mixture.from_mixture.self_s"] = own_s("mixture.from_mixture")
        m["verify.run_scenario.self_s"] = own_s("verify.run_scenario")
        m["jsonio.parse.self_s"] = own_s("jsonio.parse")
        m["jsonio.dumps.self_s"] = own_s("jsonio.dumps")
        m["trace.spans"] = len(names)
        m["trace.wall_s"] = wall_s
        # the invariant the summary rests on: own times of all spans sum to the roots
        m["trace.self_sum_s"] = sum(layer_s.values())
        table = [
            (self.names[sid], int(calls[sid]), float(self_s[sid]))
            for sid in np.argsort(-self_s)
            if calls[sid]
        ]
        return m, table
