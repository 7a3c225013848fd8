"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function of mixedcode by a wrapper
in every module namespace that binds it, so calls are timed where their
callers look them up: `mixedcode.cli.closure_from_rows`, the
`standard_form` that `mixedcode.cyclic` and `min_gray_distance` use, and
calls inside the defining module. Nothing in the program changes.

Each call becomes one span: the traced function, the span that was open
when it started (its parent), start and end times, a size count and whether
it raised. Spans stay in flat arrays until the run ends. A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

def _len_result(args, result):
    return len(result)


# Traced functions by layer, with what each span counts besides calls.
TRACED = {
    "core": {"format_vector": None},
    "matrices": {
        "parse_matrix": None,
        "standard_form": lambda args, result: len(args[0].rows),  # input rows
        "is_member": None,
        "dual_matrix": None,
        "first_violation": None,
    },
    "enumeration": {
        "enumerate_codewords": _len_result,  # words
        "gray_rows": None,
        "closure_from_rows": _len_result,  # words
        "check_subgroup": lambda args, result: len(args[0]) ** 2 + 6 * len(args[0]),  # probes
        "subgroup_witness": None,
        "brute_force_dual": lambda args, result: 1 << args[0].split.ambient_exponent,
        "min_gray_distance": lambda args, result: result.candidates,
    },
    "cyclic": {
        "parse_generators": None,
        "validate_generators": None,
        "cyclic_size": None,
        "spanning_set": lambda args, result: len(result.matrix.rows),  # rows
        "cyclic_closure_witness": None,
    },
    "cli": {"main": None},
}

# Per-layer metrics: name -> (traced function, quantity). "self" is summed
# self time in seconds, "calls" the number of calls, "size" the summed
# count above, "raised" the number of calls that raised.
METRICS = {
    "cli.self_s": ("cli.main", "self"),
    "core.format_vector.s": ("core.format_vector", "self"),
    "core.format_vector.calls": ("core.format_vector", "calls"),
    "matrices.parse_matrix.s": ("matrices.parse_matrix", "self"),
    "matrices.standard_form.s": ("matrices.standard_form", "self"),
    "matrices.standard_form.calls": ("matrices.standard_form", "calls"),
    "matrices.standard_form.rows": ("matrices.standard_form", "size"),
    "matrices.is_member.s": ("matrices.is_member", "self"),
    "matrices.is_member.calls": ("matrices.is_member", "calls"),
    "matrices.dual_matrix.s": ("matrices.dual_matrix", "self"),
    "matrices.first_violation.s": ("matrices.first_violation", "self"),
    "enumeration.enumerate_codewords.s": ("enumeration.enumerate_codewords", "self"),
    "enumeration.enumerate_codewords.words": ("enumeration.enumerate_codewords", "size"),
    "enumeration.gray_rows.s": ("enumeration.gray_rows", "self"),
    "enumeration.closure_from_rows.s": ("enumeration.closure_from_rows", "self"),
    "enumeration.closure_from_rows.words": ("enumeration.closure_from_rows", "size"),
    "enumeration.check_subgroup.s": ("enumeration.check_subgroup", "self"),
    "enumeration.check_subgroup.probes": ("enumeration.check_subgroup", "size"),
    "enumeration.subgroup_witness.s": ("enumeration.subgroup_witness", "self"),
    "enumeration.brute_force_dual.s": ("enumeration.brute_force_dual", "self"),
    "enumeration.brute_force_dual.ambient_words": ("enumeration.brute_force_dual", "size"),
    "enumeration.min_gray_distance.s": ("enumeration.min_gray_distance", "self"),
    "enumeration.min_gray_distance.candidates": ("enumeration.min_gray_distance", "size"),
    "enumeration.min_gray_distance.refusals": ("enumeration.min_gray_distance", "raised"),
    "cyclic.parse_generators.s": ("cyclic.parse_generators", "self"),
    "cyclic.validate_generators.s": ("cyclic.validate_generators", "self"),
    "cyclic.cyclic_size.s": ("cyclic.cyclic_size", "self"),
    "cyclic.spanning_set.s": ("cyclic.spanning_set", "self"),
    "cyclic.spanning_set.rows": ("cyclic.spanning_set", "size"),
    "cyclic.cyclic_closure_witness.s": ("cyclic.cyclic_closure_witness", "self"),
}


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.names = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.raised = array("b")
        self._open = [-1]
        self._patched = []

    def _wrap(self, name, fn, count):
        func_id = len(self.names)
        self.names.append(name)
        spans_func, spans_parent = self.func, self.parent
        spans_start, spans_end = self.start, self.end
        spans_size, spans_raised, open_spans = self.size, self.raised, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_start)
            spans_func.append(func_id)
            spans_parent.append(open_spans[-1])
            spans_size.append(0)
            spans_raised.append(0)
            spans_end.append(0.0)
            open_spans.append(idx)
            spans_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans_raised[idx] = 1
                raise
            finally:
                spans_end[idx] = perf_counter()
                open_spans.pop()
            if count is not None:
                spans_size[idx] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [sys.modules[f"mixedcode.{layer}"] for layer in TRACED]
        for layer, functions in TRACED.items():
            home = sys.modules[f"mixedcode.{layer}"]
            for fname, count in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to split the record into rounds."""
        return len(self.start)

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "func": np.frombuffer(self.func, dtype=np.int32).copy(),
            "parent": parent.copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": duration - children,
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, bounds) -> dict:
        """Each per-layer metric for each round (spans bounds[i]..bounds[i+1])."""
        spans = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (fname, quantity) in METRICS.items():
            per_round = []
            for lo, hi in zip(bounds, bounds[1:]):
                mine = spans["func"][lo:hi] == ids[fname]
                if quantity == "self":
                    per_round.append(float(spans["self"][lo:hi][mine].sum()))
                elif quantity == "calls":
                    per_round.append(int(mine.sum()))
                elif quantity == "size":
                    per_round.append(int(spans["size"][lo:hi][mine].sum()))
                else:
                    per_round.append(int(spans["raised"][lo:hi][mine].sum()))
            out[metric] = per_round
        return out
