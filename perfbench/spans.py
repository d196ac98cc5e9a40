"""Spans and counts around qudisc's layer functions, installed from outside.

The tracer replaces a module-level function with a wrapper in every
qudisc module that holds a reference to it, so calls made through
``from .x import f`` bindings are seen too.  Each span records its layer,
start, end and parent span; everything stays in memory until ``dump``.
A layer whose function no longer exists is reported as missing instead
of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    function: str
    spans: bool = True  # False: count calls only (hot leaf functions)
    amount: str | None = None  # argument summed per call, e.g. Monte-Carlo samples


HOOKS = (
    Hook("cli.main", "qudisc.cli", "main"),
    Hook("spectrum.jordan_spectrum", "qudisc.spectrum", "jordan_spectrum"),
    Hook("discrimination.total_failure", "qudisc.discrimination", "total_failure"),
    Hook("discrimination.minerror", "qudisc.discrimination", "minerror_probability"),
    Hook("discrimination.bounds", "qudisc.discrimination", "asymptotic_bounds"),
    Hook("discrimination.bounds", "qudisc.discrimination", "bound_p0"),
    Hook("discrimination.bounds", "qudisc.discrimination", "bound_q0"),
    Hook("discrimination.boundaries", "qudisc.discrimination", "boundaries", spans=False),
    Hook("combinatorics.binomial", "qudisc.combinatorics", "binomial", spans=False),
    Hook("verify.combinatorics", "qudisc.verify", "check_combinatorics"),
    Hook("verify.six_j", "qudisc.verify", "check_six_j"),
    Hook("verify.principal_angles", "qudisc.verify", "check_principal_angles"),
    Hook("verify.min_error", "qudisc.verify", "check_min_error"),
    Hook("verify.povm", "qudisc.verify", "check_povm"),
    Hook("verify.haar", "qudisc.verify", "check_haar"),
    Hook("verify.asymptotics", "qudisc.verify", "check_asymptotics"),
    Hook("oracle.haar", "qudisc.oracle", "haar_average", amount="samples"),
    Hook("oracle.sym_basis", "qudisc.oracle", "_sym_basis"),
    Hook("oracle.mean_states", "qudisc.oracle", "mean_states"),
    Hook("oracle.geometry", "qudisc.oracle", "_jordan_geometry"),
    Hook("oracle.eigh", "qudisc.oracle", "hermitian_eig"),
    Hook("oracle.certify_povm", "qudisc.oracle", "certify_povm"),
    Hook("oracle.helstrom", "qudisc.oracle", "helstrom_probability"),
)

# Reported metric -> (layer, statistic).  "self_ms" is span time minus the
# time covered by child spans; "total_ms" is the whole span time, used for
# the verify check families, which are the roots of their oracle calls.
METRICS = {
    "cli.self_ms": ("cli.main", "self_ms"),
    "spectrum.jordan_spectrum_ms": ("spectrum.jordan_spectrum", "self_ms"),
    "spectrum.jordan_spectrum_calls": ("spectrum.jordan_spectrum", "calls"),
    "discrimination.total_failure_ms": ("discrimination.total_failure", "self_ms"),
    "discrimination.minerror_ms": ("discrimination.minerror", "self_ms"),
    "discrimination.bounds_ms": ("discrimination.bounds", "self_ms"),
    "discrimination.boundaries_calls": ("discrimination.boundaries", "calls"),
    "combinatorics.binomial_calls": ("combinatorics.binomial", "calls"),
    "verify.combinatorics_ms": ("verify.combinatorics", "total_ms"),
    "verify.six_j_ms": ("verify.six_j", "total_ms"),
    "verify.principal_angles_ms": ("verify.principal_angles", "total_ms"),
    "verify.min_error_ms": ("verify.min_error", "total_ms"),
    "verify.povm_ms": ("verify.povm", "total_ms"),
    "verify.haar_ms": ("verify.haar", "total_ms"),
    "verify.asymptotics_ms": ("verify.asymptotics", "total_ms"),
    "oracle.haar_ms": ("oracle.haar", "self_ms"),
    "oracle.haar_samples": ("oracle.haar", "amount"),
    "oracle.sym_basis_ms": ("oracle.sym_basis", "self_ms"),
    "oracle.sym_basis_calls": ("oracle.sym_basis", "calls"),
    "oracle.mean_states_ms": ("oracle.mean_states", "self_ms"),
    "oracle.geometry_ms": ("oracle.geometry", "self_ms"),
    "oracle.geometry_builds": ("oracle.geometry", "calls"),
    "oracle.eigh_ms": ("oracle.eigh", "self_ms"),
    "oracle.eigh_calls": ("oracle.eigh", "calls"),
    "oracle.certify_povm_ms": ("oracle.certify_povm", "self_ms"),
    "oracle.helstrom_ms": ("oracle.helstrom", "self_ms"),
}


def _rebind(original, replacement) -> None:
    """Point every qudisc module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "qudisc" and not name.startswith("qudisc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.missing: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.amounts: Counter[str] = Counter()
        self.active = False
        self._stack: list[int] = []

    def install(self) -> None:
        for hook in HOOKS:
            module = sys.modules.get(hook.module)
            original = getattr(module, hook.function, None) if module else None
            if original is None:
                self.missing.append(f"{hook.layer} ({hook.module}.{hook.function})")
                continue
            if hook.layer not in self.layers:
                self.layers.append(hook.layer)
            if hasattr(original, "cache_parameters"):
                # an lru_cache: trace the function behind it, so the calls
                # counted are cache misses (builds), and keep the cache policy
                inner = self._wrap(hook, original.__wrapped__)
                replacement = functools.lru_cache(**original.cache_parameters())(inner)
            else:
                replacement = self._wrap(hook, original)
            _rebind(original, replacement)

    def _wrap(self, hook: Hook, func):
        layer = hook.layer
        index = self.layers.index(layer)
        calls, amounts, spans, stack = self.calls, self.amounts, self.spans, self._stack
        signature = inspect.signature(func) if hook.amount else None

        if not hook.spans:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                if self.active:
                    calls[layer] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            calls[layer] += 1
            if signature is not None:
                amounts[layer] += signature.bind(*args, **kwargs).arguments[hook.amount]
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                spans[slot] = (index, start, perf_counter(), parent)
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed amount, total and self time in ms."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {
            layer: {"calls": self.calls[layer], "amount": self.amounts[layer],
                    "total_ms": 0.0, "self_ms": 0.0}
            for layer in self.layers
        }
        for slot, span in enumerate(self.spans):
            if span is None:
                continue
            index, start, end, _ = span
            entry = stats[self.layers[index]]
            entry["total_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_time[slot]) * 1e3
        return stats

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "missing": self.missing,
                       "span_fields": ["layer", "start_s", "end_s", "parent"],
                       "spans": [s for s in self.spans if s is not None]}, fh)
