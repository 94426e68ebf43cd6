"""Alias-aware span recorder for the traced benchmark run.

Wraps public functions of the rankone modules from outside the package.
Names bound by ``from .x import f`` are separate module attributes, so
each wrapped function is replaced wherever any rankone module (or class)
holds the original object, and put back afterwards. Spans stay in memory
until the run ends; a span's self time is its duration minus the time its
direct child spans cover (calls nest strictly in one thread).
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

#: (layer, owner, attribute): owner is a module of the package or a
#: "module:Class" path for methods; layer names the metric prefix
TARGETS = (
    ("cli", "rankone.cli", "parse_config_dict"),
    ("cli", "rankone.cli", "run"),
    ("construction", "rankone.construction", "heights"),
    ("tower", "rankone.tower", "build_labels"),
    ("tower", "rankone.tower", "correlation_matrix"),
    ("tower", "rankone.tower", "tail_bound"),
    ("limits", "rankone.limits", "disjointness_certificate"),
    ("limits", "rankone.limits", "fit_for_shift"),
    ("limits", "rankone.limits", "fit_limit_polynomial"),
    ("limits", "rankone.limits", "is_pq_similar"),
    ("sarnak", "rankone.sarnak:Observable", "indicator"),
    ("sarnak", "rankone.sarnak:Observable", "scaled_ints"),
    ("sarnak", "rankone.sarnak", "telescope_identity_check"),
    ("sarnak", "rankone.sarnak", "prime_extension_report"),
    ("sarnak", "rankone.sarnak", "mobius_weighted_sum"),
    ("mobius", "rankone.mobius", "sieve_mobius"),
    # the package module is private; metric names may not start with "_"
    ("kernels", "rankone._kernels", "pair_counts"),
    ("kernels", "rankone._kernels", "build_word"),
    ("kernels", "rankone._kernels", "sieve_mobius"),
    ("kernels", "rankone._kernels", "class_counts"),
    ("kernels", "rankone._kernels", "weighted_mobius_sums"),
    ("kernels", "rankone._kernels", "strided_mobius_sum"),
)


def _pair_entries(labels, shift, n_ref):
    return labels.shape[0] - abs(shift)


#: work counted at the span boundary: span name -> (counter, fn(args) -> amount)
COUNTERS = {
    "kernels.pair_counts": ("entries", _pair_entries),
    "kernels.build_word": ("entries", lambda *a: a[5]),
    "kernels.sieve_mobius": ("n", lambda n_max: n_max),
    "sarnak.Observable.scaled_ints": ("coeffs", lambda obs: len(obs.coeffs)),
}


def span_name(layer: str, owner: str, attr: str) -> str:
    cls = owner.partition(":")[2]
    return ".".join(p for p in (layer, cls, attr) if p)


class Recorder:
    """In-memory spans plus per-name calls, total and self time."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, parent id, op, start, end)
        self.stats: dict[str, dict[str, float]] = {}
        self.op = -1
        self._stack: list[list] = []  # [span id, child time]

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        counter = COUNTERS.get(name)
        if counter:
            stat[counter[0]] = 0
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat["calls"] += 1
                stat["total_s"] += dur
                stat["self_s"] += dur - frame[1]
                if counter:
                    stat[counter[0]] += counter[1](*args, **kwargs)
                spans.append((sid, idx, parent, self.op, t0, t1))

        return traced

    @contextmanager
    def patched(self):
        """Wrap every target wherever the package binds it; restore on exit."""
        for _, owner, _ in TARGETS:
            importlib.import_module(owner.partition(":")[0])
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rankone" or n.startswith("rankone."))]
        undo = []
        try:
            for layer, owner, attr in TARGETS:
                mod_name, _, cls_name = owner.partition(":")
                name = span_name(layer, owner, attr)
                if cls_name:
                    cls = getattr(sys.modules[mod_name], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(sys.modules[mod_name], attr)
                new = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, new)
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def dump(self, path) -> None:
        """Write the spans recorded so far as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "parent", "op", "start", "end"],
                       "spans": self.spans}, fh)
