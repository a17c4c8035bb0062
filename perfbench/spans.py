"""Per-layer spans and counters, installed from outside the library.

Each listed function is wrapped where it lives: a module-level function
by rebinding every ``qstarlab.*`` module global that *is* that function
object (so calls through ``from .bounded import m_bounded_norm`` are seen
too), a method on its class, and a class through its ``__init__``.  The
five ``numpy.linalg`` routines are counted the same way.  A listed
function that no longer exists is reported as absent, and its metrics
are left out.

Spans are kept in memory as (op, id, parent, name, start, end) and
written out at the end.  A span's self time is its duration minus the
durations of its child spans; a linalg call is charged to its nearest
enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute path inside it)
LAYER_FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "cli.build_parser": ("cli", "build_parser"),
    "bundled.load_bundle": ("bundled", "load_bundle"),
    "report.dumps": ("report", "dumps"),
    "algebra.QuasiAlgebraInstance": ("algebra", "QuasiAlgebraInstance.__init__"),
    "algebra.validate_structure": ("algebra", "validate_structure"),
    "algebra.right_mult_matrix": ("algebra", "QuasiAlgebraInstance.right_mult_matrix"),
    "forms.IpsForm.gram": ("forms", "IpsForm.gram"),
    "forms.FormFamily.forms": ("forms", "FormFamily.forms"),
    "forms.twist": ("forms", "twist"),
    "forms.form_proportional": ("forms", "form_proportional"),
    "forms.validate_family": ("forms", "validate_family"),
    "forms.invariance_residual": ("forms", "invariance_residual"),
    "forms.check_sufficiency": ("forms", "check_sufficiency"),
    "forms.degeneracy_residuals": ("forms", "degeneracy_residuals"),
    "gns.build_gns": ("gns", "build_gns"),
    "gns.GnsRep.rep_matrix": ("gns", "GnsRep.rep_matrix"),
    "gns.reconstruction_defect": ("gns", "reconstruction_defect"),
    "bounded.m_bounded_norm": ("bounded", "m_bounded_norm"),
    "bounded.weak_product": ("bounded", "weak_product"),
    "bounded.check_condition_product": ("bounded", "check_condition_product"),
    "bounded.extract_bounded_algebra": ("bounded", "extract_bounded_algebra"),
    "bounded.radical": ("bounded", "radical"),
    "bounded.cone_membership": ("bounded", "cone_membership"),
    "topology.ga_star_check": ("topology", "ga_star_check"),
    "topology.BoundedFormSet.from_family": ("topology", "BoundedFormSet.from_family"),
    "topology.p_star": ("topology", "p_star"),
    "topology.left_mult_bound": ("topology", "left_mult_bound"),
    "topology.compare_topologies": ("topology", "compare_topologies"),
    "topology.twisted_set": ("topology", "twisted_set"),
    "lp_model.holder_sup": ("lp_model", "holder_sup"),
    "lp_model.weight_ascent_oracle": ("lp_model", "weight_ascent_oracle"),
    "lp_model.lp_bounded_norm": ("lp_model", "lp_bounded_norm"),
}

LINALG = ("svd", "eigh", "eigvalsh", "lstsq", "pinv")


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qstarlab" or name.startswith("qstarlab."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.absent = []
        self._stack = []          # [span id, name, child time]
        self._next_id = 0
        self._patches = []        # (owner, attribute, original)
        self.reset_counters()

    def reset_counters(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0])   # calls, self_s, linalg
        self.linalg = dict.fromkeys(LINALG, 0)
        self.dumps_bytes = 0
        self.closures = {}        # (op, id(family)) -> closure size
        self.weak_attempts = 0
        self.weak_resolved = 0

    # -- installation --------------------------------------------------------

    def install(self):
        import numpy.linalg

        for metric, (module, path) in LAYER_FUNCTIONS.items():
            try:
                owner = importlib.import_module(f"qstarlab.{module}")
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(metric)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(metric, raw.__func__))
                else:
                    wrapped = self._span(metric, raw)
                self._patch(owner, attr, wrapped)
            else:
                self._rebind(raw, self._span(metric, raw))
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            wrapped = self._count(name, fn)
            self._patch(numpy.linalg, name, wrapped)
            self._rebind(fn, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, target, wrapped):
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._patch(mod, key, wrapped)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        after = self._AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur - frame[2]
                tracer.spans.append((tracer.op, frame[0],
                                     parent[0] if parent is not None else -1,
                                     name, start, end))
                if after is not None:
                    after(tracer, args, result if ok else None, ok)
            return result
        return wrapper

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.linalg[name] += 1
            if tracer._stack:
                tracer.stats[tracer._stack[-1][1]][2] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_dumps(self, args, result, ok):
        if ok:
            self.dumps_bytes += len(result)

    def _after_forms(self, args, result, ok):
        if ok:
            self.closures[(self.op, id(args[0]))] = len(result)

    def _after_weak_product(self, args, result, ok):
        self.weak_attempts += 1
        self.weak_resolved += ok

    _AFTER = {"report.dumps": _after_dumps,
              "forms.FormFamily.forms": _after_forms,
              "bounded.weak_product": _after_weak_product}

    # -- results ----------------------------------------------------------------

    def counters(self):
        """The per-layer values gathered since the last reset."""
        out = {}
        for metric in LAYER_FUNCTIONS:
            if metric in self.absent:
                continue
            calls, self_s, linalg = self.stats.get(metric, (0, 0.0, 0))
            out[f"{metric}.calls"] = calls
            out[f"{metric}.self_s"] = self_s
            out[f"{metric}.linalg"] = linalg
        for name in LINALG:
            out[f"linalg.{name}.calls"] = self.linalg[name]
        out["report.dumps.bytes"] = self.dumps_bytes
        out["forms.closure_size"] = sum(self.closures.values())
        out["bounded.weak_product.resolved_frac"] = (
            self.weak_resolved / self.weak_attempts if self.weak_attempts else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart_s\tend_s\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
