"""In-memory span tracer for the traced benchmark run.

The tracer wraps tauwork's public functions from outside the package. For a
module-level function it replaces the binding in every ``tauwork`` namespace
that holds the original object (the defining module and each module that
imported it), so calls made inside the package are timed too; for a method
it replaces the attribute on the class. ``uninstall`` puts every original
back. Nothing in ``src/`` is edited.

A span records its name, start, end and parent. Spans live in flat lists
while a pass runs and are reduced to per-function totals when it ends. The
self time of a span is its duration minus the durations of its direct
children; single-threaded nesting makes the children disjoint. Calls made
while no root span is open (oracle checks between ops) are not recorded.
"""

from __future__ import annotations

import hashlib
import sys
from time import perf_counter

import numpy as np

# Every timed function, as ``<module>.<name>`` or ``<module>.<Class>.<method>``.
TARGETS = (
    "operators.spectral_decompose",
    "operators.spectrum_expm",
    "thermo.thermal_state",
    "thermo.free_energy_difference",
    "thermo.free_energy_difference_from_values",
    "channels.QuantumChannel.apply_matrix",
    "channels.time_ordered_propagator",
    "spacetime.dilation_profile",
    "protocol.conditional_probabilities",
    "protocol.tpm_distribution",
    "protocol.work_distribution_dilated",
    "protocol.run_protocol",
    "protocol.jarzynski_lhs",
    "protocol.generalized_jarzynski_rhs",
    "protocol.sample_outcomes",
    "scenarios.ScenarioConfig.from_dict",
    "scenarios.build_scenario",
    "scenarios.run_scenario",
    "cli.main",
)

# The acceptance battery at the time the benchmark was defined; each
# criterion is a root span of the ``verify`` workload.
CRITERIA = (
    "criterion_dilated_identity",
    "criterion_oscillator_closed_form",
    "criterion_nonunital_correction",
    "criterion_second_law",
    "criterion_comoving_null",
    "criterion_newtonian_limit",
    "criterion_potential_difference",
    "criterion_appendix_convergence",
    "criterion_monte_carlo",
)

COUNTS = (
    "channels.steps",
    "spacetime.samples",
    "protocol.atoms_in",
    "protocol.atoms_kept",
    "cli.bytes_written",
)

MARK = "_bench_span"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["channels.steps"] += _arg(args, kwargs, 0, "schedule").steps


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["spacetime.samples"] += _arg(args, kwargs, 0, "worldline").samples


def _count_tpm_atoms(tracer, args, kwargs, result):
    tracer.counts["protocol.atoms_in"] += _arg(args, kwargs, 3, "transitions").size
    tracer.counts["protocol.atoms_kept"] += result.size


def _count_dilated_atoms(tracer, args, kwargs, result):
    tracer.counts["protocol.atoms_in"] += _arg(args, kwargs, 0, "spec0").dim
    tracer.counts["protocol.atoms_kept"] += result.size


def _count_distinct(tracer, args, kwargs, result):
    mat = np.ascontiguousarray(_arg(args, kwargs, 0, "h").matrix)
    digest = hashlib.blake2b(memoryview(mat).cast("B"), digest_size=16).digest()
    tracer.distinct.add((mat.shape, digest))


# Counters taken at the boundary where the work happens, from the call's
# inputs and result; they repeat exactly for a given seed.
HOOKS = {
    "channels.time_ordered_propagator": _count_steps,
    "spacetime.dilation_profile": _count_samples,
    "protocol.tpm_distribution": _count_tpm_atoms,
    "protocol.work_distribution_dilated": _count_dilated_atoms,
    "operators.spectral_decompose": _count_distinct,
}


def _tauwork_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "tauwork" or name.startswith("tauwork."))
    ]


def _is_wrapper(value) -> bool:
    return hasattr(getattr(value, "__func__", value), MARK)


def installed_wrappers() -> list[str]:
    """Every tauwork binding that currently holds a tracer wrapper."""
    found = []
    for mod_name, mod in _tauwork_modules():
        for attr, value in list(vars(mod).items()):
            if _is_wrapper(value):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found += [
                    f"{mod_name}.{attr}.{a}" for a, v in vars(value).items() if _is_wrapper(v)
                ]
    return found


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.distinct: set = set()
        self._patched: list = []

    def clear(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        for lst in (self.names, self.starts, self.ends, self.parents, self.stack):
            lst.clear()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.distinct.clear()

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span; return ``(result, error, seconds)``."""
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(-1)
        self.ends.append(0.0)
        self.stack.append(idx)
        result = error = None
        t0 = perf_counter()
        self.starts.append(t0)
        try:
            result = fn(*args)
        except Exception as exc:  # an op failure is counted, not fatal
            error = exc
        t1 = perf_counter()
        self.ends[idx] = t1
        self.stack.pop()
        return result, error, t1 - t0

    def _wrap(self, name, fn, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack,
        )
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> int:
        """Wrap every target; return the number of bindings replaced."""
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        modules = _tauwork_modules()
        for target in TARGETS:
            mod_name, *path = target.split(".")
            owner = sys.modules[f"tauwork.{mod_name}"]
            hook = HOOKS.get(target)
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, raw.__func__, hook))
                else:
                    new = self._wrap(target, raw, hook)
                setattr(cls, path[1], new)
                self._patched.append((cls, path[1], raw))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(target, original, hook)
            for _, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Reduce the recorded spans to per-name totals.

        Returns ``calls`` and ``self_s`` per span name, the summed root
        durations (``wall_s``), the self time outside every wrapped function
        (``unwrapped_s``), the smallest self time seen, and the counts.
        """
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, s in zip(self.names, self_t.tolist()):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
        return {
            "calls": calls,
            "self_s": self_s,
            "wall_s": float(dur[~nested].sum()),
            "unwrapped_s": sum(s for name, s in self_s.items() if name not in TARGETS),
            "min_self_s": float(self_t.min()) if self_t.size else 0.0,
            "counts": dict(self.counts),
            "distinct": len(self.distinct),
        }

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
