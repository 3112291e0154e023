"""Spans around calls into slrm's public functions, installed from outside.

``Tracer.install`` replaces every public function bound in the given
modules, including names a module imported from another one (``from
.linalg import spmv`` binds ``spmv`` in ``gcg`` too), with a wrapper that
records a span: name, start, end, parent span, instance, phase and, when
the first argument is a registered problem matrix, that operand.  The
package source is not touched, and ``uninstall`` puts every original
object back.  Spans are kept in flat arrays while the run lasts.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

PHASES = ("setup", "solve", "check")
OPERANDS = ("other", "AC", "B", "C")


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.phase = array("b")
        self.operand = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"lanczos_steps": 0, "lanczos_unconverged": 0}
        self.current_instance = -1
        self.current_phase = 0
        self._stack: list[int] = []
        self._operands: dict[int, int] = {}   # id(matrix) -> operand code
        self.problems: dict[int, object] = {}  # instance -> registered problem
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- run context

    def begin(self, instance, phase):
        self.current_instance = instance
        self.current_phase = PHASES.index(phase)

    def register(self, prob):
        """Name the current instance's AC, B and C for operand attribution."""
        self.problems[self.current_instance] = prob
        for code, mat in ((1, prob.AC), (2, prob.B), (3, prob.C)):
            self._operands[id(mat)] = code

    # ------------------------------------------------------------- wrapping

    def install(self):
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("slrm.")):
                    continue
                label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                setattr(mod, attr, self._wrap(obj, self._name_id(label)))
                self._saved.append((mod, attr, obj))

    def uninstall(self):
        """Restore every wrapped attribute; returns the ones that did not."""
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        return [f"{mod.__name__}.{attr}" for mod, attr, obj in self._saved
                if getattr(mod, attr) is not obj]

    @property
    def wrapped(self):
        return len(self._saved)

    def _name_id(self, label):
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def _wrap(self, fn, nid):
        names, parents, instances = self.name, self.parent, self.instance
        phases, operands, starts, ends = self.phase, self.operand, self.start, self.end
        stack, codes, clock = self._stack, self._operands, time.perf_counter
        hook = _RESULT_HOOKS.get(fn.__name__)
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            instances.append(tracer.current_instance)
            phases.append(tracer.current_phase)
            operands.append(codes.get(id(args[0]), 0) if args else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, out)
            return out

        return traced

    # -------------------------------------------------------------- results

    def spans(self):
        """Span table as numpy arrays, with duration and self time."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": parent,
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase, dtype=np.int8).copy(),
            "operand": np.frombuffer(self.operand, dtype=np.int8).copy(),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path, spans):
        np.savez_compressed(path, names=np.array(self.names), **spans)


def _lanczos_result(counters, pair):
    counters["lanczos_steps"] += int(pair.iterations)
    counters["lanczos_unconverged"] += 0 if pair.converged else 1


_RESULT_HOOKS = {"top_singular_pair": _lanczos_result}
