"""Span tracer that times fddrecon's layers from outside the package.

`Tracer.install` replaces module attributes with timing wrappers
(monkeypatching), so nothing under `src/` knows it is being traced. Every
wrapped call becomes one span (name, start, end, parent span, trial index),
kept in memory in flat arrays and written out once when the run ends. Self
time is a span's duration minus the time covered by its direct child spans.

Some counters are read from return values (extraction iterations and stop
reasons, Newton acceptance, scheduler feasibility) and the two numeric
kernels get operation and byte counts computed from their argument shapes.
"""

from __future__ import annotations

import json
import time
from array import array

# (module, attribute, metric label). Labels are "<layer>.<function>"; the
# `_kernels` module is reported as layer `kernels` because metric names must
# start with a letter. `recon` binds `kron3` by name at import, so its copy is
# wrapped separately and reported as `recon.kron3`.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "_oracle_gains", "harness._oracle_gains"),
    ("harness", "_zf_rates", "harness._zf_rates"),
    ("sysmodel", "generate_scenario", "sysmodel.generate_scenario"),
    ("sysmodel", "sounding_observation", "sysmodel.sounding_observation"),
    ("sysmodel", "uplink_channel", "sysmodel.uplink_channel"),
    ("sysmodel", "downlink_channel", "sysmodel.downlink_channel"),
    ("enomp", "extract", "enomp.extract"),
    ("enomp", "stopping_statistic", "enomp.stopping_statistic"),
    ("enomp", "omp_detect", "enomp.omp_detect"),
    ("enomp", "newton_refine", "enomp.newton_refine"),
    ("enomp", "coarse_gain", "enomp.coarse_gain"),
    ("enomp", "synth_atom", "enomp.synth_atom"),
    ("_kernels", "kron3", "kernels.kron3"),
    ("_kernels", "moment_cube", "kernels.moment_cube"),
    ("recon", "kron3", "recon.kron3"),
    ("dltrain", "schedule_beams", "dltrain.schedule_beams"),
    ("dltrain", "coefficient_matrix", "dltrain.coefficient_matrix"),
    ("dltrain", "simulate_downlink_training", "dltrain.simulate_downlink_training"),
    ("dltrain", "estimate_downlink_gains", "dltrain.estimate_downlink_gains"),
    ("recon", "channel_covariance", "recon.channel_covariance"),
    ("recon", "reconstruct", "recon.reconstruct"),
    ("recon", "uplink_channel_estimate", "recon.uplink_channel_estimate"),
    ("recon", "ls_baseline", "recon.ls_baseline"),
    ("recon", "lmmse_baseline", "recon.lmmse_baseline"),
    ("mueval", "zf_precoder", "mueval.zf_precoder"),
    ("mueval", "sinr", "mueval.sinr"),
    ("mueval", "monte_carlo_sinr", "mueval.monte_carlo_sinr"),
)

LAYERS = ("cli", "harness", "sysmodel", "enomp", "kernels", "dltrain", "recon", "mueval")

COUNTERS = (
    ("enomp.iterations", "count"),
    ("enomp.paths", "count"),
    ("enomp.stop.below_threshold", "count"),
    ("enomp.stop.cap", "count"),
    ("enomp.stop.degenerate", "count"),
    ("enomp.newton.accepted", "count"),
    ("dltrain.probes", "count"),
    ("dltrain.infeasible", "count"),
    ("kernels.kron3.flops_computed", "flop"),
    ("kernels.kron3.bytes_computed", "B"),
    ("kernels.moment_cube.flops_computed", "flop"),
    ("kernels.moment_cube.bytes_computed", "B"),
)

_COMPLEX = 16   # bytes per complex128
_CMUL = 6       # real flops per complex multiply
_CMAC = 8       # real flops per complex multiply-add


def _kron3_cost(a_v, a_h, p_n):
    """Minimal-algorithm cost of one atom: the M_v x M_h outer product, then
    one multiply per output entry; reads the three factors, writes the atom."""
    vh = len(a_v) * len(a_h)
    out = vh * len(p_n)
    return _CMUL * (vh + out), _COMPLEX * (len(a_v) + len(a_h) + len(p_n) + out)


def _moment_cube_cost(y3, a_v, a_h, p_n, *centers):
    """Minimal-algorithm cost of the staged contraction: three weighted
    delay sums per (v, h), then 3x3 horizontal and 3x3x3 vertical stages;
    reads the cube and the factors, writes the 27 moments."""
    m_v, m_h, n = y3.shape
    flops = _CMAC * (3 * m_v * m_h * n + 9 * m_v * m_h + 27 * m_v)
    nbytes = _COMPLEX * (m_v * m_h * n + m_v + m_h + n + 27)
    return flops, nbytes


class Tracer:
    """Collects spans and counters for one process; not thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.labels = [label for _, _, label in WRAPPED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.labels)
        self.incl_s = [0.0] * len(self.labels)
        self.self_s = [0.0] * len(self.labels)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys((name for name, _ in COUNTERS), 0)
        self.trial = 0
        self.trial_starts = []    # clock at each generate_scenario call
        self._stack = []          # open spans: [span index, child-covered seconds]
        self._last_error = {}     # layer -> exception already counted
        self._patches = []

    # ------------------------------------------------------------------ hooks
    def _on_extract(self, result):
        c = self.counters
        c["enomp.iterations"] += result.iterations
        c["enomp.paths"] += len(result.paths)
        c["enomp.stop." + result.stop_reason] += 1

    def _on_newton(self, result):
        self.counters["enomp.newton.accepted"] += bool(result[3])

    def _on_schedule(self, plan):
        self.counters["dltrain.infeasible"] += not plan.feasible

    def _on_scenario_call(self, args, kwargs):
        self.trial += 1
        self.trial_starts.append(self._clock())

    def _cost_hook(self, prefix, cost):
        flops_key = prefix + ".flops_computed"
        bytes_key = prefix + ".bytes_computed"
        counters = self.counters

        def on_call(args, kwargs):
            flops, nbytes = cost(*args, **kwargs)
            counters[flops_key] += flops
            counters[bytes_key] += nbytes
        return on_call

    # --------------------------------------------------------------- wrapping
    def _wrap(self, index, fn, on_call=None, on_return=None):
        layer = self.labels[index].split(".", 1)[0]
        clock = self._clock
        stack = self._stack
        names, parents, trials = self.span_name, self.span_parent, self.span_trial
        starts, ends = self.span_start, self.span_end
        calls, incl_s, self_s = self.calls, self.incl_s, self.self_s

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = len(names)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            trials.append(self.trial)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(layer, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[span] = t0
                ends[span] = t1
                if stack:
                    stack[-1][1] += dur
                calls[index] += 1
                incl_s[index] += dur
                self_s[index] += dur - frame[1]
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_error(self, layer, exc):
        # an exception propagating through several wrapped calls of one layer
        # is one error of that layer
        if self._last_error.get(layer) is not exc:
            self._last_error[layer] = exc
            self.errors[layer] += 1

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package):
        """Wrap every function in WRAPPED, plus the scheduler's probe method.

        `package` is the imported `fddrecon` package; its submodules must
        already be imported.
        """
        hooks = {
            "enomp.extract": (None, self._on_extract),
            "enomp.newton_refine": (None, self._on_newton),
            "dltrain.schedule_beams": (None, self._on_schedule),
            "sysmodel.generate_scenario": (self._on_scenario_call, None),
            "kernels.kron3": (self._cost_hook("kernels.kron3", _kron3_cost), None),
            "recon.kron3": (self._cost_hook("kernels.kron3", _kron3_cost), None),
            "kernels.moment_cube": (
                self._cost_hook("kernels.moment_cube", _moment_cube_cost), None),
        }
        for index, (module_name, attr, label) in enumerate(WRAPPED):
            module = getattr(package, module_name)
            on_call, on_return = hooks.get(label, (None, None))
            self._patch(module, attr, self._wrap(index, getattr(module, attr), on_call, on_return))

        state_cls = package.dltrain._UserState
        probe = state_cls.subset_nmse
        counters = self.counters

        def counted_probe(*args, **kwargs):
            counters["dltrain.probes"] += 1
            return probe(*args, **kwargs)

        self._patch(state_cls, "subset_nmse", counted_probe)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- results
    def summary(self) -> dict:
        """Per-function calls / inclusive / self seconds, errors, counters."""
        functions = {
            label: {"calls": self.calls[i], "s": self.incl_s[i], "self_s": self.self_s[i]}
            for i, label in enumerate(self.labels)
        }
        return {"functions": functions, "errors": dict(self.errors),
                "counters": dict(self.counters), "spans": len(self.span_name)}

    def write_spans(self, path):
        """Write every span as columns: name index, parent span (-1 for a
        root), trial index (0 before the first scenario), start and end in
        seconds of the process's perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.labels,
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "trial": self.span_trial.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, fh)
