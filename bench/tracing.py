"""Per-module spans and counters, installed from outside the program.

A span wrapper replaces a function wherever another module (or the
benchmark's own workload module) has bound it by name, so a call that
crosses a module boundary opens a span of the callee's module.  A
counter wrapper replaces a function in its home module, so calls from
inside that module are counted too.  Spans are aggregated in memory per
module: a module's self time is its span time minus the time of the
spans nested in it.  A name the program no longer has is skipped, and
its metrics read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "verify", "strata", "bundles", "chow", "quiver", "repgeom", "linalg")

# (home module, function, layer of its span or None, counter, sums len(result))
SPANS = (
    ("cli", "main", "cli", "cli.calls", False),
    ("verify", "verify_collection", "verify", "verify.calls", False),
    ("verify", "standard_collection", "verify", "verify.calls", False),
    ("verify", "check_ch_identities", "verify", "verify.calls", False),
    ("verify", "mutation_ledger_check", "verify", "verify.calls", False),
    ("strata", "teleman_certify", "strata", "strata.teleman_calls", False),
    ("strata", "eta", "strata", None, False),
    ("strata", "one_ps_from_hn", "strata", None, False),
    ("bundles", "weights_of", "bundles", "bundles.weights_calls", True),
    ("bundles", "parse_expr", "bundles", "bundles.parse_calls", False),
    ("chow", "chi", "chow", "chow.chi_calls", False),
    ("chow", "ch_of", "chow", None, False),
    ("chow", "integral", "chow", None, False),
    ("chow", "parse_chow_poly", "chow", None, False),
    ("chow", "render_fraction", "chow", None, False),
    ("quiver", "enumerate_hn_types", "quiver", "quiver.enumerate_calls", False),
    ("quiver", "hn_stratum_codim", "quiver", None, False),
    ("quiver", "slope", "quiver", None, False),
    ("_linalg", "poly_mul", "linalg", None, False),
    ("_linalg", "poly_sub", "linalg", None, False),
    ("_linalg", "poly_gcd", "linalg", None, False),
    ("_linalg", "poly_divmod", "linalg", None, False),
    ("_linalg", "rank", "linalg", None, False),
    ("_linalg", "row_space_basis", "linalg", None, False),
    ("_linalg", "solve_in_span", "linalg", None, False),
)

# The CLI reaches repgeom through the module object, so these spans are
# installed in repgeom itself and also cover its internal calls.
HOME_SPANS = tuple(
    ("repgeom", name, "repgeom", counter, False)
    for name, counter in (
        ("parse_matrix", None), ("is_stable", "repgeom.is_stable_calls"),
        ("minors", None), ("minors_independent", None), ("commutes", None),
        ("render_quadratic_form", None), ("to_sl3_plane", None),
        ("syzygies", "repgeom.syzygies_calls"), ("tensor_to_cubic", None),
    )
)

# (home module, function, counter): counted at home, calls from inside too.
COUNTERS = (
    ("chow", "ch_of", "chow.ch_of_calls"),
    ("quiver", "has_semistable", "quiver.has_semistable_calls"),
    ("_linalg", "poly_mul", "linalg.poly_mul_calls"),
    ("_linalg", "rref", "linalg.rref_calls"),
)

CALL_METRICS = (
    "quiver.enumerate_calls", "quiver.has_semistable_calls", "linalg.poly_mul_calls",
    "chow.ch_of_calls", "chow.mul_calls", "chow.chi_calls", "strata.teleman_calls",
    "bundles.weights_calls", "bundles.weight_entries", "bundles.parse_calls",
    "verify.calls", "repgeom.is_stable_calls", "repgeom.syzygies_calls",
    "linalg.rref_calls", "cli.calls",
)


class Tracer:
    def __init__(self, bench_module):
        self.bench_module = bench_module
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.top_s = 0.0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._ch_of = None
        self._cache_before = None

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, layer, key, measure):
        counts, self_s, stack, clock = self.counts, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if key:
                counts[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_s += elapsed
            if measure:
                counts["bundles.weight_entries"] += len(result)
            return result

        return spanned

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        mods = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("quivercert.")
        }
        importers = list(mods.values()) + [sys.modules["quivercert"], self.bench_module]
        originals = {}
        for home, name, key in COUNTERS:
            fn = getattr(mods.get(home), name, None)
            if callable(fn):
                originals[(home, name)] = fn
                self._set(mods[home], name, self._counter(fn, key))
        chow = mods.get("chow")
        element = getattr(chow, "ChowElement", None)
        if element is not None and "__mul__" in vars(element):
            self._set(element, "__mul__", self._counter(element.__mul__, "chow.mul_calls"))
        ch_of = originals.get(("chow", "ch_of"))
        self._cache_before = ch_of.cache_info() if hasattr(ch_of, "cache_info") else None
        self._ch_of = ch_of
        for home, name, layer, key, measure in SPANS:
            current = getattr(mods.get(home), name, None)
            if not callable(current):
                continue
            original = originals.get((home, name), current)
            wrapped = self._span(current, layer, key, measure)
            for mod in importers:
                if mod is mods[home]:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original or value is current:
                        self._set(mod, attr, wrapped)
        for home, name, layer, key, measure in HOME_SPANS:
            current = getattr(mods.get(home), name, None)
            if callable(current):
                self._set(mods[home], name, self._span(current, layer, key, measure))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metrics(self, wall_s: float) -> dict:
        out = {key: (self.counts[key], "count") for key in CALL_METRICS}
        hit_ratio = 0.0
        if self._cache_before is not None:
            after = self._ch_of.cache_info()
            hits = after.hits - self._cache_before.hits
            lookups = hits + after.misses - self._cache_before.misses
            hit_ratio = hits / lookups if lookups else 0.0
        out["chow.ch_of_hit_ratio"] = (hit_ratio, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["bench.self_s"] = (wall_s - self.top_s, "s")
        out["trace.wall_s"] = (wall_s, "s")
        return out
