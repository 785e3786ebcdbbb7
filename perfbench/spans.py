"""Span tracing of ktsolve's public functions, installed from outside.

A Tracer replaces each traced function with a wrapper in every ktsolve
module that binds it (solver imports names directly, so
ktsolve.solver.reparametrize is wrapped as well as
ktsolve.reparam.reparametrize). Each call records a span: name, start,
end, parent span and op id. Spans stay in memory and are reduced to
per-name totals, or saved, when the run ends.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

# layer (= ktsolve module) -> public functions traced in it
TRACED = {
    "solver": ("kts_solve", "exclusion_test", "kantorovich_test", "newton", "rho_star", "lipschitz_bound"),
    "reparam": ("reparametrize",),
    "kernels": (
        "power_affine_cols",
        "cheb_affine_rows",
        "mat_apply_cols",
        "mat_t_apply_cols",
        "bernstein_patch_matrix",
        "zonotope_origin_inside",
    ),
    "bounding": ("bounding_polytope", "contains_origin", "bounding_interval_bi", "bounding_interval"),
    "basis": ("convert", "convert_uni", "conversion_matrix", "eval_bi"),
    "families": ("interval_comparison", "generate_family"),
}


def _madds(name, args):
    """Multiply-adds a restriction kernel computes, from its array shapes."""
    if name == "power_affine_cols":  # a Taylor shift: triangular matrix times columns
        n1, k = args[0].shape
        return n1 * (n1 + 1) // 2 * k
    m, c = args[0], args[1]
    return m.shape[0] * m.shape[1] * c.shape[1]


def _on_return(label):
    """Outcome counters recorded where the work happens."""
    layer, name = label.split(".")
    if label == "solver.exclusion_test":
        return lambda t, args, r: t.counts.update({"solver.exclusion_test.excluded": bool(r)})
    if label == "solver.kantorovich_test":
        return lambda t, args, r: t.counts.update({"solver.kantorovich_test.passed": bool(r.passed)})
    if layer == "kernels" and name in ("mat_apply_cols", "mat_t_apply_cols", "power_affine_cols"):

        def count_madds(t, args, r):
            # basis conversion calls power_affine_cols too; count restrictions only
            if t.inside("reparam.reparametrize"):
                t.counts["kernels.restrict_flops_computed"] += _madds(name, args)

        return count_madds
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.counts = Counter()
        self.op = -1
        self._stack = [-1]
        self._next_id = 0
        self._depth = Counter()
        self._patches = []
        self.span_id, self.parent = array("q"), array("q")
        self.name, self.op_id, self.outer = array("i"), array("i"), array("b")
        self.start, self.end = array("d"), array("d")

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def inside(self, name):
        """Whether a span of this name is open."""
        return self._depth[self._name_id(name)] > 0

    def _wrap(self, fn, label):
        per_basis = label == "solver.kts_solve"
        on_return = _on_return(label)
        fixed_id = None if per_basis else self._name_id(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = self._name_id(f"{label}.{args[0].basis.value}") if per_basis else fixed_id
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            depth = self._depth[nid]
            self._depth[nid] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self._depth[nid] = depth
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name.append(nid)
                self.op_id.append(self.op)
                self.outer.append(depth == 0)
                self.start.append(t0)
                self.end.append(t1)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a ktsolve module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ktsolve" or n.startswith("ktsolve.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"ktsolve.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _arrays(self):
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        name = np.frombuffer(self.name, dtype=np.int32)[order]
        outer = np.frombuffer(self.outer, dtype=np.int8)[order].astype(bool)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[order]
        return parent, name, outer, dur

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a recursive
        chain; self time is a span's duration minus its children's.
        """
        if not len(self.span_id):
            return {}
        parent, name, outer, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        """Write the raw spans (ordered by span id) to an .npz file."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            parent=np.frombuffer(self.parent, dtype=np.int64)[order],
            name=np.frombuffer(self.name, dtype=np.int32)[order],
            op=np.frombuffer(self.op_id, dtype=np.int32)[order],
            start=np.frombuffer(self.start)[order],
            end=np.frombuffer(self.end)[order],
        )
