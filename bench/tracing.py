"""Spans around petcalc's public functions, for the traced benchmark run.

A ``Tracer`` replaces functions and methods in petcalc's modules with
timing wrappers and restores them afterwards; nothing in ``src/`` is
edited. Every wrapped call is timed and charged to its parent, so

    sum of self times (all names, plus the tracer's own bookkeeping)
        + uncovered time == traced wall time

holds exactly. Calls to coarse functions are also kept as spans
(name, start, end, parent, job). Hot leaf calls (polynomial arithmetic,
memoised restriction lookups) run millions of times, so they are kept
only as per-name totals; their time still leaves their parent's self
time.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (name, start, end, parent index or None, job)
        self.calls = defaultdict(int)  # outermost calls per name
        self.inclusive = defaultdict(float)  # outermost-call seconds per name
        self.self_time = defaultdict(float)  # seconds per name, children removed
        self.counts = defaultdict(float)  # counters taken at span boundaries
        self.job = None
        # frame: [seconds covered by children, index of nearest kept span]
        self._root = [0.0, None]
        self._stack = [self._root]
        self._depth = {}
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, keep=False, before=None, after=None):
        """Timing wrapper for ``fn``.

        ``name`` is a string or a function of (args, kwargs) returning one.
        ``before(args, kwargs)`` returns a token handed to
        ``after(args, kwargs, result, token)``; both run outside the timed
        call and are charged to the tracer's own bookkeeping.
        """
        clock = self.clock
        stack = self._stack
        spans = self.spans
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        depth_of = self._depth
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            t0 = clock()
            label = fixed or name(args, kwargs)
            depth = depth_of.get(label)
            if depth is None:
                depth = depth_of[label] = [0]
            token = before(args, kwargs) if before is not None else None
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            depth[0] += 1
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                seconds = end - start
                self_time[label] += seconds - frame[0]
                if not depth[0]:
                    calls[label] += 1
                    inclusive[label] += seconds
                if keep:
                    spans[frame[1]] = (label, start, end, parent[1], self.job)
                if ok and after is not None:
                    after(args, kwargs, result, token)
                t3 = clock()
                self_time["trace.bookkeeping"] += (start - t0) + (t3 - end)
                parent[0] += t3 - t0
            return result

        return wrapper

    def patch(self, owner, attr, name, **options):
        """Wrap ``owner.attr`` wherever petcalc binds that same object.

        A module function is replaced in every petcalc module that
        imported it by name; a method is replaced under every attribute
        of its class that aliases it (``__rmul__ = __mul__``).
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, **options)
        if isinstance(owner, type):
            places = [owner]
        else:
            places = [
                module
                for key, module in list(sys.modules.items())
                if module is not None
                and (key == "petcalc" or key.startswith("petcalc."))
            ]
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    self._patches.append((place, key, value))
                    setattr(place, key, wrapper)

    def restore(self):
        for place, key, value in reversed(self._patches):
            setattr(place, key, value)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def covered(self):
        """Seconds inside any top-level span, tracer bookkeeping included."""
        return self._root[0]

    def layer_self(self):
        """Self seconds per layer: the prefix of each name before the dot."""
        out = defaultdict(float)
        for label, seconds in self.self_time.items():
            out[label.split(".", 1)[0]] += seconds
        return dict(out)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_digest(path):
    try:
        data = path.read_bytes()
    except OSError:
        return None, 0
    return hashlib.sha256(data).digest(), len(data)


def install_petcalc_hooks(tracer, systems):
    """Wrap the public entry points of every petcalc layer.

    ``systems`` collects each root system a job builds, so that memo
    sizes can be read when the job ends. Returns the names of optional
    hooks that this petcalc version does not have.
    """
    from petcalc import cache, gkm, peterson, poly, rootsys

    counts = tracer.counts
    missing = []

    def keep_system(args, kwargs, result, token):
        systems.append(result)

    tracer.patch(rootsys, "root_system_from_label", "rootsys.build",
                 keep=True, after=keep_system)
    tracer.patch(rootsys, "weyl_enumerate", "rootsys.weyl_enumerate")

    def term_pairs(args, kwargs, result, token):
        a, b = args
        size_a = len(a.terms) if hasattr(a, "terms") else len(a.coeffs)
        if isinstance(b, (poly.Polynomial, poly.PolyT)):
            size_b = len(b.terms) if hasattr(b, "terms") else len(b.coeffs)
        else:
            size_b = 1
        counts["poly.mul_term_pairs"] += size_a * size_b

    for cls in (poly.Polynomial, poly.PolyT):
        tracer.patch(cls, "__mul__", "poly.mul", after=term_pairs)
        for attr in ("__add__", "__sub__", "__rsub__"):
            tracer.patch(cls, attr, "poly.addsub")
        tracer.patch(cls, "text", "poly.text")
    tracer.patch(poly, "divide_exact", "poly.div")
    tracer.patch(poly, "is_graham_positive", "poly.positivity")
    tracer.patch(poly, "specialize_to_t", "poly.specialize")

    # The row fill has no public entry point: it runs inside
    # billey_restriction, schubert_class and structure_table.
    if hasattr(gkm, "_fill_billey_row"):
        def rss_before(args, kwargs):
            return _maxrss_mb()

        def rss_after(args, kwargs, result, token):
            counts["gkm.billey_fill_rss_mb"] += max(0.0, _maxrss_mb() - token)

        tracer.patch(gkm, "_fill_billey_row", "gkm.billey_fill", keep=True,
                     before=rss_before, after=rss_after)
    else:
        missing.append("gkm._fill_billey_row")

    def billey_name(args, kwargs):
        word = kwargs.get("word", args[3] if len(args) > 3 else None)
        return "gkm.billey_restriction" if word is None else "gkm.billey_word"

    tracer.patch(gkm, "billey_restriction", billey_name)
    tracer.patch(gkm, "schubert_class", "gkm.schubert_class")

    def product_name(args, kwargs):
        is_class = isinstance(args[1], gkm.LocalizedClass)
        return "gkm.product" if is_class else "gkm.scale"

    tracer.patch(gkm.LocalizedClass, "__mul__", product_name)

    def solve_after(args, kwargs, result, token):
        counts["gkm.solve_nonzero"] += len(result)
        counts["gkm.solve_support"] += len(args[0].values)

    tracer.patch(gkm, "expand_in_schubert_basis", "gkm.solve", after=solve_after)
    tracer.patch(gkm, "gkm_verify", "gkm.gkm_verify", keep=True)
    tracer.patch(gkm, "structure_constants", "gkm.structure_constants", keep=True)
    tracer.patch(gkm, "structure_table", "gkm.structure_table", keep=True)

    tracer.patch(peterson, "peterson_class", "peterson.basis")
    tracer.patch(peterson, "peterson_structure_constants", "peterson.pair",
                 keep=True)
    tracer.patch(peterson, "pullback_expansion", "peterson.pullback")
    tracer.patch(peterson, "cross_validate", "peterson.cross_validate", keep=True)
    tracer.patch(peterson, "flag_consistency_report", "peterson.consistency",
                 keep=True)
    tracer.patch(peterson, "peterson_table", "peterson.table", keep=True)

    def adopted(args, kwargs, result, token):
        counts["cache.adopted"] += result

    def save_before(args, kwargs):
        return _file_digest(args[0].path)[0]

    def save_after(args, kwargs, result, token):
        digest, size = _file_digest(args[0].path)
        counts["cache.useful_saves"] += digest != token
        counts["cache.file_bytes"] = size

    tracer.patch(cache.BilleyDiskCache, "load", "cache.load", keep=True,
                 after=adopted)
    tracer.patch(cache.BilleyDiskCache, "save", "cache.save", keep=True,
                 before=save_before, after=save_after)
    return missing
