"""Per-layer spans recorded around congroup's entry points, from outside.

:class:`Tracer` replaces each entry point listed in :data:`ENTRY_POINTS` by a
timing wrapper at every place the name is bound (a function imported by name
into another module is bound there too, e.g. ``ring_mul`` in ``cocycles``
and ``classify``), and :meth:`Tracer.remove` puts the originals back, so
untraced runs call unpatched code.  Only layer entry points are wrapped,
never per-coefficient accessors such as ``coeff`` or ``known``, which run
millions of times a pass.

A span's parent is the span open below it; spans are folded into totals as
they close (calls and self time per entry point, and calls per
parent -> child edge) instead of being kept one by one, because the
``laws`` workload opens millions of them.  Self time is a span's duration
minus the durations of the spans opened directly inside it.  An entry point
entered again while its own span is innermost (``Transformed`` evaluating
its base, ``__sub__`` adding) stays part of that span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span key); the layer is the key's first component
ENTRY_POINTS = [
    ("congroup.series", "TruncSeries.__init__", "series.init"),
    ("congroup.series", "TruncSeries.__add__", "series.add"),
    ("congroup.series", "TruncSeries.__sub__", "series.add"),
    ("congroup.series", "ring_mul", "series.mul"),
    ("congroup.series", "parse", "series.text"),
    ("congroup.series", "format_series", "series.text"),
    ("congroup.series", "TruncSeries.agree", "series.agree"),
    ("congroup.series", "TruncSeries.agree_through", "series.agree"),
    ("congroup.cocycles", "BasisOmega.__call__", "cocycles.eval"),
    ("congroup.cocycles", "ParamOmega.__call__", "cocycles.eval"),
    ("congroup.cocycles", "Eta.__call__", "cocycles.eval"),
    ("congroup.cocycles", "QuadCoboundary.__call__", "cocycles.eval"),
    ("congroup.cocycles", "Transformed.__call__", "cocycles.eval"),
    ("congroup.cocycles", "eval_basis_omega", "cocycles.eval"),
    ("congroup.cocycles", "eval_eta", "cocycles.eval"),
    ("congroup.cocycles", "eval_param_omega", "cocycles.eval"),
    ("congroup.cocycles", "eval_coboundary", "cocycles.eval"),
    ("congroup.cocycles", "coboundary_potential", "cocycles.eval"),
    ("congroup.cocycles", "b_map", "cocycles.check"),
    ("congroup.cocycles", "check_cocycle_identity", "cocycles.check"),
    ("congroup.cocycles", "check_equivariance", "cocycles.check"),
    ("congroup.extensions", "ExtElement.__mul__", "extensions.mul"),
    ("congroup.extensions", "ExtElement.inverse", "extensions.inverse"),
    ("congroup.extensions", "commutator", "extensions.commutator"),
    ("congroup.extensions", "center_test", "extensions.center"),
    ("congroup.fingerprint", "fingerprint", "fingerprint.profile"),
    ("congroup.fingerprint", "delta_profile", "fingerprint.profile"),
    ("congroup.fingerprint", "recover_bits", "fingerprint.profile"),
    ("congroup.fingerprint", "equivalent_on_window", "fingerprint.equiv"),
    ("congroup.sections", "build_section", "sections.build"),
    ("congroup.sections", "digit_expand", "sections.digits"),
    ("congroup.sections", "verify_section", "sections.verify"),
    ("congroup.classify", "theta_x", "classify.theta_x"),
    ("congroup.classify", "element_order", "classify.element_order"),
    ("congroup.classify", "schur_cohn", "classify.schur_cohn"),
    ("congroup.classify", "omega_p_contractive", "classify.omega_p_contractive"),
    ("congroup.classify", "primary_decompose", "classify.primary_decompose"),
    ("congroup.classify", "canonicalize_spec", "classify.canonicalize_spec"),
    ("congroup.cli", "main", "cli.main"),
]

ROOT = "bench.query"


def _count_mul(counts, args, kwargs, out):
    counts["series.mul.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_eval(counts, args, kwargs, out):
    counts["cocycles.out_coeffs"] += len(out.coeffs)
    counts["cocycles.empty"] += not out.coeffs


def _count_bits(counts, args, kwargs, out):
    counts["fingerprint.bits"] += kwargs["window"] if "window" in kwargs else args[1]


def _count_digits(counts, args, kwargs, out):
    counts["sections.digits"] += len(out.digits)


# work counted from the arguments or result of a completed span
HOOKS = {
    "series.mul": _count_mul,
    "cocycles.eval": _count_eval,
    "fingerprint.profile": _count_bits,
    "sections.digits": _count_digits,
}


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]
        self.spans = defaultdict(lambda: [0, 0.0])  # key -> [calls, self seconds]
        self.edges = Counter()  # (parent key, child key) -> calls
        self.counts = Counter()
        self._patched = []  # (namespace, attribute, original)
        errors = sys.modules["congroup.errors"]
        self._failures = {errors.WindowTooSmall: "window_too_small", errors.InsufficientPrecision: "insufficient_precision"}

    # -- installing -------------------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "congroup" or name.startswith("congroup.")]
        for mod_name, attr, key in ENTRY_POINTS:
            owner = sys.modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                self._bind(cls, meth, self._wrap(vars(cls)[meth], key))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, key)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, wrapper)

    def _bind(self, namespace, name, wrapper):
        self._patched.append((namespace, name, vars(namespace)[name]))
        setattr(namespace, name, wrapper)

    def remove(self):
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def _failure(self, layer, err):
        """Count an error once, in the layer that raised it."""
        if not getattr(err, "_perfbench_counted", False):
            name = next(n for cls, n in self._failures.items() if isinstance(err, cls))
            self.counts[f"{layer}.{name}"] += 1
            err._perfbench_counted = True

    def _wrap(self, fn, key):
        stack, spans, edges, counts = self.stack, self.spans, self.edges, self.counts
        key = sys.intern(key)
        hook = HOOKS.get(key)
        layer = key.partition(".")[0]
        failures = tuple(self._failures)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is key:
                try:
                    return fn(*args, **kwargs)
                except failures as err:
                    self._failure(layer, err)
                    raise
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except failures as err:
                self._failure(layer, err)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = spans[key]
                rec[0] += 1
                rec[1] += dur - frame[1]
                edges[parent[0], key] += 1
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return traced

    # -- reading ----------------------------------------------------------------------

    def calls(self, prefix):
        return sum(rec[0] for key, rec in self.spans.items() if key == prefix or key.startswith(prefix + "."))

    def self_s(self, prefix):
        return sum(rec[1] for key, rec in self.spans.items() if key == prefix or key.startswith(prefix + "."))

    def edge(self, parent_prefix, child):
        return sum(n for (par, ch), n in self.edges.items() if ch == child and par.startswith(parent_prefix))
