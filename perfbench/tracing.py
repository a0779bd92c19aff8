"""Per-layer tracing of roughassim from the benchmark's side.

The tracer wraps the public functions of every roughassim module without
editing the library.  A function is patched in every module that holds it
under a name, so ``roughassim.optimizer.integrate_state`` and
``roughassim.checks.p_variation`` are traced as well as the definitions in
``roughassim.dynamics`` and ``roughassim.roughpath``.  Each call records one
span (name, start, end, parent, raised, extra) in memory; spans are reduced
once the run ends and the originals are restored.

Self time of a span is its duration minus the durations of its direct
children.  Each span's self time is credited to the nearest span, itself
or an ancestor, whose function is named in :data:`LAYER_TIME`; what no
named span encloses goes to ``trace.other_self_s``.  The layer times of one
operation therefore sum to its traced wall time, with nothing counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

MODULES = (
    "grid",
    "roughpath",
    "dynamics",
    "cost",
    "adjoint",
    "optimizer",
    "shooting",
    "experiments",
    "checks",
)

# Called once per grid step or node from inside other layers: a span per
# call would time the tracer more than the work, so their time stays with
# the caller.
PER_STEP = frozenset(
    {
        "dynamics.lorenz63_drift",
        "adjoint.hamiltonian",
        "adjoint.pointwise_hamiltonian_minimizer",
    }
)

ROOT = "op"

# metric -> traced functions whose spans (and unnamed descendants) it owns
LAYER_TIME = {
    "dynamics.integrate_state_s": ("dynamics.integrate_state",),
    "adjoint.solve_costate_s": ("adjoint.solve_costate",),
    "adjoint.control_gradient_s": ("adjoint.control_gradient",),
    "adjoint.max_principle_residual_s": ("adjoint.max_principle_residual",),
    "adjoint.duality_check_s": ("adjoint.duality_check",),
    "cost.eval_cost_s": ("cost.eval_cost",),
    "optimizer.minimize_self_s": ("optimizer.minimize",),
    "roughpath.p_variation_s": ("roughpath.p_variation",),
    "roughpath.build_observation_s": ("roughpath.build_observation",),
    "shooting.integrate_hamiltonian_s": ("shooting.integrate_hamiltonian",),
    "grid.write_path_csv_s": ("grid.write_path_csv",),
    "grid.read_path_csv_s": ("grid.read_path_csv",),
    "experiments.simulate_s": ("experiments.cmd_simulate", "experiments.simulate_truth"),
    "experiments.assimilate_self_s": (
        "experiments.cmd_assimilate",
        "experiments.run_assimilation",
    ),
    "checks.roughpath_s": ("checks.suite_roughpath",),
    "checks.adjoint_s": ("checks.suite_adjoint",),
    "checks.duality_s": ("checks.suite_duality",),
    "checks.valueprobe_s": ("checks.suite_valueprobe",),
}

_OWNER = {fn: metric for metric, fns in LAYER_TIME.items() for fn in fns}

LAYER_CALLS = {
    "dynamics.integrate_state_calls": "dynamics.integrate_state",
    "adjoint.solve_costate_calls": "adjoint.solve_costate",
    "cost.eval_cost_calls": "cost.eval_cost",
    "roughpath.p_variation_calls": "roughpath.p_variation",
    "shooting.integrate_hamiltonian_calls": "shooting.integrate_hamiltonian",
}

# Every per-layer metric with its unit, in report order.
UNITS = {
    "dynamics.integrate_state_s": "s",
    "dynamics.integrate_state_calls": "count",
    "dynamics.rk4_steps": "count",
    "dynamics.step_us": "us",
    "dynamics.blowups": "count",
    "adjoint.solve_costate_s": "s",
    "adjoint.solve_costate_calls": "count",
    "adjoint.control_gradient_s": "s",
    "adjoint.max_principle_residual_s": "s",
    "adjoint.duality_check_s": "s",
    "cost.eval_cost_s": "s",
    "cost.eval_cost_calls": "count",
    "optimizer.minimize_self_s": "s",
    "optimizer.iterations": "count",
    "optimizer.trial_evals": "count",
    "optimizer.accept_ratio": "1",
    "roughpath.p_variation_s": "s",
    "roughpath.p_variation_calls": "count",
    "roughpath.pvar_pairs": "count",
    "roughpath.build_observation_s": "s",
    "shooting.integrate_hamiltonian_s": "s",
    "shooting.integrate_hamiltonian_calls": "count",
    "grid.write_path_csv_s": "s",
    "grid.read_path_csv_s": "s",
    "grid.csv_bytes": "B",
    "experiments.simulate_s": "s",
    "experiments.assimilate_self_s": "s",
    "checks.roughpath_s": "s",
    "checks.adjoint_s": "s",
    "checks.duality_s": "s",
    "checks.valueprobe_s": "s",
    "trace.op_s": "s",
    "trace.other_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "1",
}

# span fields
NAME, START, END, PARENT, RAISED, EXTRA = range(6)


def _file_size(target) -> int:
    if isinstance(target, (str, os.PathLike)):
        return os.path.getsize(target)
    return 0


def _extra_integrate_state(args, result, exc):
    """RK4 steps taken: all of them, or up to the node that blew up."""
    if exc is None:
        return result.grid.n_steps
    return int(getattr(exc, "node_index", 0))


def _extra_p_variation(args, result, exc):
    """Pair terms the O(N^2) dynamic program evaluates: n(n-1)/2."""
    if exc is not None:
        return 0
    n = args[0].values.shape[0]
    return n * (n - 1) // 2


def _extra_write_csv(args, result, exc):
    return 0 if exc is not None else _file_size(args[1])


def _extra_read_csv(args, result, exc):
    return 0 if exc is not None else _file_size(args[0])


def _extra_minimize(args, result, exc):
    """(iterations, accepted steps) of one projected-gradient solve."""
    if exc is not None:
        return (0, 0)
    return (result.iterations, len(result.cost_trace) - 1)


EXTRAS = {
    "dynamics.integrate_state": _extra_integrate_state,
    "roughpath.p_variation": _extra_p_variation,
    "grid.write_path_csv": _extra_write_csv,
    "grid.read_path_csv": _extra_read_csv,
    "optimizer.minimize": _extra_minimize,
}


class Tracer:
    """Installs span-recording wrappers and reduces the spans per operation."""

    def __init__(self):
        self.spans: list = []
        self.ops: list = []  # (first span index, end index) per traced operation
        self._stack: list = []
        self._patches: list = []  # (namespace, attribute, original)

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], False, None]
            stack.append(len(spans))
            spans.append(rec)
            exc = result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if extra is not None:
                    rec[EXTRA] = extra(args, result, exc)

        return traced

    def _install(self) -> None:
        """Patch every public roughassim function wherever it is bound by name."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"roughassim.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_STEP
                ):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name == __name__:
                continue
            if not (mod_name.split(".")[0] in ("roughassim", "perfbench")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def _uninstall(self) -> None:
        """Restore the original functions and confirm none is left wrapped."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        for module, attr, original in self._patches:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def trace(self, fn, arg):
        """Run ``fn(arg)`` as one operation under a root span, with the
        library patched only while it runs; returns fn's result."""
        first = len(self.spans)
        root = [ROOT, 0.0, 0.0, -1, False, None]
        self.spans.append(root)
        self._stack.append(first)
        try:
            self._install()
            root[START] = time.perf_counter()
            return fn(arg)
        except BaseException:
            root[RAISED] = True
            raise
        finally:
            root[END] = time.perf_counter()
            self._uninstall()
            self._stack.pop()
            self.ops.append((first, len(self.spans)))

    # -- reduction ----------------------------------------------------------

    def reduce_op(self, first: int, end: int) -> dict:
        """Per-layer totals of one traced operation."""
        spans = self.spans[first:end]
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        owner = [None] * len(spans)
        totals = {m: 0.0 for m in UNITS}
        totals["accepted"] = 0
        minimize_spans = set()
        for i, s in enumerate(spans):
            p = s[PARENT] - first if s[PARENT] >= 0 else -1
            if p >= 0:
                child[p] += dur[i]
            own = _OWNER.get(s[NAME])
            owner[i] = own if own is not None else (owner[p] if p >= 0 else None)
            name = s[NAME]
            if name == "dynamics.integrate_state":
                totals["dynamics.rk4_steps"] += s[EXTRA]
                totals["dynamics.blowups"] += s[RAISED]
                if p >= 0 and spans[p][NAME] == "optimizer.minimize":
                    totals["optimizer.trial_evals"] += 1
            elif name == "roughpath.p_variation":
                totals["roughpath.pvar_pairs"] += s[EXTRA]
            elif name in ("grid.write_path_csv", "grid.read_path_csv"):
                totals["grid.csv_bytes"] += s[EXTRA]
            elif name == "optimizer.minimize":
                minimize_spans.add(i)
                totals["optimizer.iterations"] += s[EXTRA][0]
                totals["accepted"] += s[EXTRA][1]
        # the first forward solve of each minimize is not an Armijo trial
        totals["optimizer.trial_evals"] -= len(minimize_spans)
        for metric, target in LAYER_CALLS.items():
            totals[metric] = sum(1 for s in spans if s[NAME] == target)
        self_sum = 0.0
        for i in range(len(spans)):
            own = dur[i] - child[i]
            self_sum += own
            totals[owner[i] or "trace.other_self_s"] += own
        totals["trace.op_s"] = dur[0]
        totals["trace.spans"] = len(spans)
        totals["self_sum_s"] = self_sum
        return totals

    def layer_metrics(self, untraced_s: list) -> tuple[dict, float]:
        """Per-operation means over the traced operations, plus the overhead
        against ``untraced_s``, the same inputs' untraced wall times.

        Returns the metrics and the largest relative gap between an
        operation's summed self times and its wall time.
        """
        per_op = [self.reduce_op(a, b) for a, b in self.ops]
        n = len(per_op)
        out = {}
        for metric in UNITS:
            out[metric] = sum(t[metric] for t in per_op) / n
        steps = sum(t["dynamics.rk4_steps"] for t in per_op)
        state_s = sum(t["dynamics.integrate_state_s"] for t in per_op)
        out["dynamics.step_us"] = 1e6 * state_s / steps if steps else 0.0
        trials = sum(t["optimizer.trial_evals"] for t in per_op)
        accepted = sum(t["accepted"] for t in per_op)
        out["optimizer.accept_ratio"] = accepted / trials if trials else 0.0
        base = statistics.median(untraced_s)
        traced = statistics.median(t["trace.op_s"] for t in per_op)
        out["trace.overhead_frac"] = (traced - base) / base
        gap = max(abs(t["self_sum_s"] - t["trace.op_s"]) / t["trace.op_s"] for t in per_op)
        return out, gap
