"""Outside-in tracer for oak: spans and counts taken around calls into each
module's public functions, without touching the package itself.

``Tracer.install()`` replaces every target with a timing wrapper and rebinds
every alias of it: the home module, other oak modules that imported it by
name (``oak.morphisms.apply``, ``oak.cli.apply``), the re-exports in
``oak/__init__`` and class attributes that share one function object
(``Scalar.__radd__ is Scalar.__add__``).  ``uninstall()`` puts the originals
back.

Each wrapped call adds its duration to its function's inclusive time and its
duration minus that of its wrapped children to its layer's self time.  Calls
of the functions marked ``record`` are also kept as spans
``(id, parent id, task id, key, start, end)``; hot leaf functions (scalar
arithmetic, ``kostant_partition``, element arithmetic) are only aggregated,
so a run keeps a few hundred thousand spans at most.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute path, record); the layer is the oak module the
# function lives in, except for sympy's cancel, which is scalar work.
_SCALAR_OPS = (
    "__add__", "__sub__", "__rsub__", "__mul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
)
TARGETS = (
    [("scalars", "oak.scalars", f"Scalar.{op}", False) for op in _SCALAR_OPS]
    + [
        ("scalars", "oak.scalars", "ScalarContext.rational", False),
        ("scalars", "oak.scalars", "ScalarContext.parse", False),
        ("scalars", "sympy.polys.rings", "PolyElement.cancel", False),
        ("liealg", "oak.liealg", "bracket", True),
        ("liealg", "oak.liealg", "bracket_basis", False),
        ("liealg", "oak.liealg", "structure_constants", True),
        ("liealg", "oak.liealg", "decomposition_parts", True),
        ("uea", "oak.uea", "engine", True),
        ("uea", "oak.uea", "PBWEngine.normal_word", False),
        ("uea", "oak.uea", "multiply", True),
        ("uea", "oak.uea", "normal_order", True),
        ("uea", "oak.uea", "reduce_central", True),
        ("uea", "oak.uea", "act_on_verma", True),
        ("uea", "oak.uea", "UEAElement.__add__", False),
        ("uea", "oak.uea", "UEAElement.__sub__", False),
        ("uea", "oak.uea", "UEAElement.scale", False),
        ("weyl", "oak.weyl", "weyl_mono_product", False),
        ("weyl", "oak.weyl", "weyl_multiply", True),
        ("weyl", "oak.weyl", "weyl_commutator", True),
        ("weyl", "oak.weyl", "apply", True),
        ("weyl", "oak.weyl", "apply_inverse_lowering", True),
        ("weyl", "oak.weyl", "straighten_highest", True),
        ("weyl", "oak.weyl", "straighten_all", True),
        ("weyl", "oak.weyl", "support", True),
        ("weyl", "oak.weyl", "WeylElement.__add__", False),
        ("weyl", "oak.weyl", "WeylElement.__sub__", False),
        ("weyl", "oak.weyl", "WeylElement.__neg__", False),
        ("weyl", "oak.weyl", "WeylElement.scale", False),
        ("weyl", "oak.weyl", "WeylElement.__mul__", False),
        ("weyl", "oak.weyl", "WeylElement.__pow__", False),
        ("weyl", "oak.weyl", "LaurentVector.__add__", False),
        ("weyl", "oak.weyl", "LaurentVector.__sub__", False),
        ("weyl", "oak.weyl", "LaurentVector.scale", False),
        ("morphisms", "oak.morphisms", "f_basis", False),
        ("morphisms", "oak.morphisms", "f_map", True),
        ("morphisms", "oak.morphisms", "phi_basis", False),
        ("morphisms", "oak.morphisms", "phi_lie", True),
        ("morphisms", "oak.morphisms", "phi_map", True),
        ("morphisms", "oak.morphisms", "verify_lie_hom", True),
        ("morphisms", "oak.morphisms", "theta_generator", True),
        ("morphisms", "oak.morphisms", "conjugation_twist_action", True),
        ("morphisms", "oak.morphisms", "verify_theta_conjugation", True),
        ("morphisms", "oak.morphisms", "LocalizedOperator.act", True),
        ("morphisms", "oak.morphisms", "TensorElement.__mul__", True),
        ("morphisms", "oak.morphisms", "TensorElement.__add__", False),
        ("morphisms", "oak.morphisms", "TensorElement.__sub__", False),
        ("morphisms", "oak.morphisms", "TensorElement.scale", False),
        ("characters", "oak.characters", "kostant_partition", False),
        ("characters", "oak.characters", "verma_char", True),
        ("characters", "oak.characters", "char_module", True),
        ("characters", "oak.characters", "convolve", True),
        ("characters", "oak.characters", "delta_char", True),
        ("characters", "oak.characters", "generalized_verma_char", True),
        ("characters", "oak.characters", "finite_simple_sp_char", True),
        ("characters", "oak.characters", "compare_characters", True),
        ("characters", "oak.characters", "verify_verma_factorization", True),
        ("characters", "oak.characters", "verify_generalized_factorization", True),
        ("characters", "oak.characters", "classify_flags", True),
        ("characters", "oak.characters", "CharTable.crop", True),
        ("characters", "oak.characters", "CharTable.aligned_to", True),
        ("characters", "oak.characters", "CharTable.from_json_dict", True),
        ("syntax", "oak.syntax", "parse_lie_element", True),
        ("syntax", "oak.syntax", "parse_word", True),
        ("syntax", "oak.syntax", "parse_weyl_element", True),
        ("syntax", "oak.syntax", "parse_module_descriptor", True),
        ("syntax", "oak.syntax", "format_basis", False),
        ("syntax", "oak.syntax", "format_lie", False),
        ("syntax", "oak.syntax", "format_mono", False),
        ("syntax", "oak.syntax", "format_uea", False),
        ("syntax", "oak.syntax", "format_verma", False),
        ("syntax", "oak.syntax", "format_weyl", False),
        ("cli", "oak.cli", "main", True),
    ]
)
LAYERS = ("scalars", "liealg", "uea", "weyl", "morphisms", "characters", "syntax", "cli")


def _apply_pairs(counts, args, result):
    p, v = args[0], args[1]
    counts["weyl.apply_term_pairs"] += len(p.terms) * len(v.terms)


def _convolve_pairs(counts, args, result):
    counts["characters.convolve_pairs"] += len(args[0].entries) * len(args[1].entries)


def _crop_kept(counts, args, result):
    counts["characters.crop_offered"] += len(args[0].entries)
    counts["characters.crop_kept"] += len(result.entries)


HOOKS = {
    "oak.weyl.apply": _apply_pairs,
    "oak.characters.convolve": _convolve_pairs,
    "oak.characters.CharTable.crop": _crop_kept,
}


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _namespaces():
    """Every oak module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "oak" or name.startswith("oak.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)     # function key or counter -> count
        self.total_s = defaultdict(float)  # function key -> inclusive time
        self.self_s = defaultdict(float)   # layer -> self time
        self.spans = []
        self.task = None
        self._stack = [[0.0, None]]        # frames: [child time, span id]
        self._ids = itertools.count(1)
        self._undo = []
        self.originals = {}                # key -> original function
        self._cache_before = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, key, fn, record, hook):
        stack, spans, ids = self._stack, self.spans, self._ids
        counts, total_s, self_s = self.counts, self.total_s, self.self_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if record else parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self_s[layer] += dur - frame[0]
                total_s[key] += dur
                counts[key] += 1
                if record:
                    spans.append((sid, parent[1], tracer.task, key, t0, t1))
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.traced_key = key
        return traced

    def install(self):
        """Wrap every target and rebind all of its aliases."""
        import oak.cli  # noqa: F401  (every oak module, so every alias, is loaded)

        wrappers = {}
        extra = []
        for layer, module, path, record in TARGETS:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            key = f"{module}.{path}"
            self.originals[key] = fn
            if isinstance(fn, classmethod):
                wrapped = classmethod(self._wrap(layer, key, fn.__func__, record, HOOKS.get(key)))
            else:
                wrapped = self._wrap(layer, key, fn, record, HOOKS.get(key))
            wrappers[id(fn)] = wrapped
            if not module.startswith("oak"):
                extra.append(owner)
        for ns in itertools.chain(_namespaces(), extra):
            for name, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(ns, name, wrapper)
                    self._undo.append((ns, name, value))
        self._cache_before = self.mono_cache_info()

    def uninstall(self):
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)

    def stale_aliases(self):
        """Names in oak (or on the wrapped sympy class) still bound to an
        original while installed; empty when every alias was rebound."""
        originals = {id(fn): key for key, fn in self.originals.items()}
        owners = [_resolve(m, p)[0] for _, m, p, _ in TARGETS if not m.startswith("oak")]
        stale = []
        for ns in itertools.chain(_namespaces(), owners):
            for name, value in vars(ns).items():
                if id(value) in originals:
                    stale.append(f"{getattr(ns, '__name__', ns)}.{name}")
        return stale

    # -- spans opened by the benchmark itself ---------------------------------

    @contextmanager
    def span(self, layer, key, task=None):
        """A span around code of the benchmark (a task) or an import."""
        parent = self._stack[-1]
        sid = next(self._ids)
        frame = [0.0, sid]
        self._stack.append(frame)
        previous, self.task = self.task, (task if task is not None else self.task)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            parent[0] += dur
            self.self_s[layer] += dur - frame[0]
            self.total_s[key] += dur
            self.counts[key] += 1
            self.spans.append((sid, parent[1], self.task, key, t0, t1))
            self.task = previous

    # -- reading out ------------------------------------------------------------

    def mono_cache_info(self):
        import oak.weyl

        cached = self.originals.get("oak.weyl.weyl_mono_product", oak.weyl.weyl_mono_product)
        return cached.cache_info()

    def summary(self):
        info = self.mono_cache_info()
        before = self._cache_before
        hits = info.hits - (before.hits if before else 0)
        misses = info.misses - (before.misses if before else 0)
        return {
            "counts": dict(self.counts),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "mono_cache": {"hits": hits, "misses": misses, "size": info.currsize},
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
