"""Per-layer tracing by wrapping the package's public functions from outside.

The layers are the seven modules of ``malcev``.  Every plain function in a
module's ``__all__`` (and ``cli.build_parser``) gets a wrapper that counts its
calls and measures its inclusive and self time; self time is the duration
minus the time spent in wrapped callees.  The modules import functions from
each other by name, so the wrapper replaces every module-level binding of the
function in the package, not just the defining one.  Generator functions are
left alone, because a wrapper would only time the creation of the generator.

Spans are aggregated per function as they close instead of being stored one by
one: the alignment sweep alone closes over a million of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "presentation",
    "rewriting",
    "congruence",
    "cayley",
    "ideals",
    "group_derivation",
    "cli",
)
EXTRA_FUNCTIONS = {"cli": ("build_parser",)}
CAP_SITES = ("congruence.equality_class", "ideals.common_multiples")


def _reduce(work, args, result):
    work["reduce_letters"] += len(args[0])


def _class(work, args, result):
    work["class_words"] += len(result)
    work["class_max"] = max(work["class_max"], len(result))


def _divides(work, args, result):
    work["divides_hits"] += result is not None


def _intersect(work, args, result):
    work["reachable"] += result.provenance != "base-search"


def _alignment(work, args, result):
    work["oracle_samples"] += result.sampled


def _common(work, args, result):
    work["common_multiples_found"] += len(result)


OBSERVERS = {
    "rewriting.reduce_word": _reduce,
    "congruence.equality_class": _class,
    "congruence.left_divides": _divides,
    "ideals.intersect_principal": _intersect,
    "ideals.verify_alignment": _alignment,
    "ideals.common_multiples": _common,
}
WORK_KEYS = (
    "reduce_letters",
    "class_words",
    "class_max",
    "divides_hits",
    "reachable",
    "oracle_samples",
    "common_multiples_found",
    "cap_exceeded",
)

# (metric, unit, better) in the order they are reported
PER_LAYER = (
    ("presentation.build_s", "s", "lower"),
    ("presentation.parse_s", "s", "lower"),
    ("rewriting.reduce_calls", "count", "lower"),
    ("rewriting.reduce_letters", "count", "lower"),
    ("rewriting.reduce_self_s", "s", "lower"),
    ("rewriting.enumerate_s", "s", "lower"),
    ("congruence.class_calls", "count", "lower"),
    ("congruence.class_words", "count", "lower"),
    ("congruence.class_max", "count", "lower"),
    ("congruence.class_self_s", "s", "lower"),
    ("congruence.divides_calls", "count", "lower"),
    ("congruence.divides_hit_ratio", "ratio", "higher"),
    ("congruence.divides_self_s", "s", "lower"),
    ("congruence.cap_exceeded", "count", "lower"),
    ("cayley.pred_calls", "count", "lower"),
    ("cayley.pred_self_s", "s", "lower"),
    ("cayley.ball_s", "s", "lower"),
    ("cayley.dot_s", "s", "lower"),
    ("ideals.intersect_calls", "count", "lower"),
    ("ideals.intersect_self_s", "s", "lower"),
    ("ideals.reachable_ratio", "ratio", "higher"),
    ("ideals.oracle_samples", "count", "higher"),
    ("ideals.oracle_s", "s", "lower"),
    ("ideals.common_multiples_found", "count", "higher"),
    ("group_derivation.verify_s", "s", "lower"),
    ("cli.run_self_s", "s", "lower"),
    ("cli.parser_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Install with :meth:`install`, run the traced code, then :meth:`uninstall`."""

    def __init__(self):
        self.stats = {}  # "layer.function" -> [calls, inclusive s, self s]
        self.work = dict.fromkeys(WORK_KEYS, 0)
        self._stack = [0.0]  # time spent in wrapped callees, per open span
        self._undo = []

    def install(self) -> None:
        cap_exceeded = importlib.import_module("malcev.congruence").CapExceeded
        modules = [importlib.import_module(f"malcev.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name in (*mod.__all__, *EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(mod, name)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn, cap_exceeded))
        for mod in (sys.modules["malcev"], *modules):
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, key, fn, cap_exceeded):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        work = self.work
        observe = OBSERVERS.get(key)
        counts_cap = key in CAP_SITES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except cap_exceeded:
                if counts_cap:
                    work["cap_exceeded"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack[-2] += elapsed
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
            if observe is not None:
                observe(work, args, result)
            return result

        return wrapper

    def counts(self) -> dict:
        """Every work count; two traced runs of one input must agree exactly."""
        calls = {f"calls.{key}": s[0] for key, s in sorted(self.stats.items())}
        return {**calls, **self.work}

    def metrics(self, overhead_ratio: float) -> dict:
        def calls(key):
            return self.stats.get(key, (0, 0.0, 0.0))[0]

        def total(key):
            return self.stats.get(key, (0, 0.0, 0.0))[1]

        def own(key):
            return self.stats.get(key, (0, 0.0, 0.0))[2]

        def ratio(part, whole):
            return part / whole if whole else 0.0

        w = self.work
        values = {
            "presentation.build_s": total("presentation.build_presentation"),
            "presentation.parse_s": total("presentation.parse_word"),
            "rewriting.reduce_calls": calls("rewriting.reduce_word"),
            "rewriting.reduce_letters": w["reduce_letters"],
            "rewriting.reduce_self_s": own("rewriting.reduce_word"),
            "rewriting.enumerate_s": total("rewriting.enumerate_elements"),
            "congruence.class_calls": calls("congruence.equality_class"),
            "congruence.class_words": w["class_words"],
            "congruence.class_max": w["class_max"],
            "congruence.class_self_s": own("congruence.equality_class"),
            "congruence.divides_calls": calls("congruence.left_divides"),
            "congruence.divides_hit_ratio": ratio(
                w["divides_hits"], calls("congruence.left_divides")
            ),
            "congruence.divides_self_s": own("congruence.left_divides"),
            "congruence.cap_exceeded": w["cap_exceeded"],
            "cayley.pred_calls": calls("cayley.predecessors"),
            "cayley.pred_self_s": own("cayley.predecessors"),
            "cayley.ball_s": total("cayley.build_ball"),
            "cayley.dot_s": total("cayley.export_dot"),
            "ideals.intersect_calls": calls("ideals.intersect_principal"),
            "ideals.intersect_self_s": own("ideals.intersect_principal"),
            "ideals.reachable_ratio": ratio(
                w["reachable"], calls("ideals.intersect_principal")
            ),
            "ideals.oracle_samples": w["oracle_samples"],
            "ideals.oracle_s": total("ideals.common_multiples")
            + total("ideals.minimal_elements"),
            "ideals.common_multiples_found": w["common_multiples_found"],
            "group_derivation.verify_s": total("group_derivation.verify_obstruction"),
            "cli.run_self_s": own("cli.run"),
            "cli.parser_s": total("cli.build_parser"),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def table(self) -> str:
        """Per-function calls, inclusive and self time, slowest self first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'function':44} {'calls':>10} {'incl_s':>10} {'self_s':>10}"]
        lines += [
            f"{key:44} {c:10d} {t:10.4f} {s:10.4f}" for key, (c, t, s) in rows if c
        ]
        return "\n".join(lines)
