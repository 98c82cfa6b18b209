"""Timing wrappers and the span recorder for the traced benchmark run.

Only ``--trace 1`` imports this module's :func:`install`.  It wraps public
entry points of each layer of the program from outside (no file under
``src/`` changes) and records one span per call: name, thread, start, end
and nesting depth.  Spans are kept in memory and written out at exit.

A span's *self time* is its duration minus the time its child spans cover.
Layer metrics are the inclusive time of the outermost span of a kind, so a
parameterless layer whose ``backward_batch`` calls its own ``backward`` is
counted once.

Recording happens only in the phase the workload names (``"setup"`` or
``"op"``); warm-up ops and correctness checks run unrecorded.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: layer class -> metric stem (classes not listed count as "nn.other")
_LAYER_KIND = {
    "Conv2D": "conv",
    "Dense": "dense",
    "MaxPool2D": "pool",
    "AvgPool2D": "pool",
}

_ENGINE_METHODS = {
    "forward": "engine.forward",
    "predict_classes": "engine.forward",
    "stacked_forward": "engine.stacked_forward",
    "input_gradients": "engine.input_grad",
    "output_gradients": "engine.param_grad",
    "loss_parameter_gradients": "engine.param_grad",
    "activation_masks": "engine.masks",
    "packed_activation_masks": "engine.masks",
    "neuron_masks": "engine.masks",
    "packed_neuron_masks": "engine.masks",
    "per_sample_coverage": "engine.masks",
    "mean_validation_coverage": "engine.masks",
    "union_mask": "engine.masks",
    "set_validation_coverage": "engine.masks",
}


class Recorder:
    """Thread-aware span stack plus per-phase aggregates."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (phase, name, thread id, start, end, depth)
        self.spans: List[Tuple[str, str, int, float, float, int]] = []
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        #: counters measured where the work happens (flops, copies, lookups)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        #: (start, end) of serve submits, outside any thread stack (async)
        self.submits: List[Tuple[float, float]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append([name, perf_counter(), 0.0])

    def end(self) -> float:
        end = perf_counter()
        stack = self._stack()
        name, start, covered = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        outermost = all(frame[0] != name for frame in stack)
        phase = self.phase
        if phase is not None:
            with self._lock:
                key = (phase, name)
                self.spans.append(
                    (phase, name, threading.get_ident(), start, end, len(stack))
                )
                self.self_time[key] += duration - covered
                if outermost:
                    self.total[key] += duration
                    self.calls[key] += 1
        return duration

    def count(self, name: str, value: float) -> None:
        phase = self.phase
        if phase is not None:
            with self._lock:
                self.counts[(phase, name)] += value

    def in_kind(self, prefix: str) -> bool:
        """True when an enclosing span on this thread starts with ``prefix``."""
        return any(frame[0].startswith(prefix) for frame in self._stack())

    # -- reading -------------------------------------------------------------
    def ms(self, name: str, phase: str = "op") -> float:
        return self.total.get((phase, name), 0.0) * 1e3

    def n(self, name: str, phase: str = "op") -> int:
        return self.calls.get((phase, name), 0)

    def op_accounting_gap(self) -> float:
        """Largest relative gap between an op span and the sum of the self
        times of the spans nested in it, recomputed from the span list."""
        by_thread: Dict[int, list] = defaultdict(list)
        for phase, name, tid, start, end, depth in self.spans:
            if phase == "op":
                by_thread[tid].append([start, end, depth, name, 0.0])
        worst = 0.0
        for spans in by_thread.values():
            spans.sort(key=lambda s: (s[0], s[2]))
            # nesting sweep: each span's parent is the innermost open span
            open_spans: list = []
            for span in spans:
                while open_spans and open_spans[-1][1] <= span[0]:
                    open_spans.pop()
                if open_spans:
                    open_spans[-1][4] += span[1] - span[0]
                open_spans.append(span)
            ops: list = []  # [duration, summed self time, end]
            for start, end, _depth, name, covered in spans:
                if name == "op":
                    ops.append([end - start, 0.0, end])
                if ops and end <= ops[-1][2]:
                    ops[-1][1] += (end - start) - covered
            for duration, self_sum, _ in ops:
                worst = max(worst, abs(self_sum - duration) / duration)
        return worst

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


RECORDER = Recorder()


def _span(name_of: Callable[..., str], fn: Callable, after=None) -> Callable:
    """Wrap ``fn`` in a span named ``name_of(*args)``; ``after(result, *args,
    **kwargs)`` records counters for calls made while recording."""
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.phase is None:
            return fn(*args, **kwargs)
        rec.begin(name_of(*args))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module's reference to ``original`` at ``wrapped``
    (modules that did ``from x import f`` hold their own reference)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_method(cls, method: str, name_of) -> None:
    setattr(cls, method, _span(name_of, cls.__dict__[method]))


def _conv_flops(kernel_volume: int, output_size: int) -> float:
    # one multiply-add per kernel tap per output element
    return 2.0 * kernel_volume * output_size


def _install_nn() -> None:
    import numpy as np

    from repro.nn import layers

    rec = RECORDER

    def kind(layer) -> str:
        return _LAYER_KIND.get(type(layer).__name__, "other")

    def forward_flops(out, layer, *_, **__):
        rec.count("nn.conv_flop", _conv_flops(layer.weight.value[0].size, out.size))

    def stacked_forward_flops(out, layer, x, weight, *_, **__):
        rec.count("nn.conv_flop", _conv_flops(int(np.prod(weight.shape[2:])), out.size))

    def backward_flops(result, layer, grad_out, *args, **kwargs):
        # the grad_w GEMM always; the input-gradient GEMM unless skipped
        need_input = not isinstance(result, tuple) or result[0] is not None
        weight = kwargs.get("weight", args[0] if args else None)
        if getattr(weight, "ndim", 0) == 5:  # stacked (M, F, C, kh, kw)
            volume = int(np.prod(weight.shape[2:]))
        else:
            volume = layer.weight.value[0].size
        gemms = 2 if need_input else 1
        rec.count("nn.conv_flop", gemms * _conv_flops(volume, grad_out.size))

    conv_flops = {
        "forward": forward_flops,
        "stacked_forward": stacked_forward_flops,
        "backward": backward_flops,
        "backward_batch": backward_flops,
        "stacked_backward_batch": backward_flops,
    }
    methods = (("forward", "fwd"), ("backward", "bwd"), ("backward_batch", "bwd"),
               ("stacked_backward_batch", "bwd"), ("stacked_forward", None))
    for cls_name in ("Layer", "Dense", "Conv2D", "MaxPool2D", "AvgPool2D",
                     "Flatten", "Dropout", "ActivationLayer"):
        cls = getattr(layers, cls_name)
        for method, suffix in methods:
            if method not in cls.__dict__:
                continue
            if suffix is None:
                name_of = lambda layer, *_: "nn.stacked_fwd"  # noqa: E731
            else:
                name_of = lambda layer, *_, _s=suffix: f"nn.{kind(layer)}_{_s}"  # noqa: E731
            after = conv_flops[method] if cls is layers.Conv2D else None
            setattr(cls, method, _span(name_of, cls.__dict__[method], after))

    from repro.nn import serialization

    original = serialization.parameter_digest
    _rebind(original, _span(lambda *_: "nn.digest", original))


def _install_engine() -> None:
    from repro.engine import Engine

    rec = RECORDER
    for method, name in _ENGINE_METHODS.items():
        fn = Engine.__dict__[method]

        def wrapper(self, *args, _fn=fn, _name=name, **kwargs):
            if rec.phase is None:
                return _fn(self, *args, **kwargs)
            outermost = not rec.in_kind("engine.")
            if outermost:
                # read the counters now: stats may be the live cache object
                stats = self.stats
                before = (stats.hits, stats.misses)
            rec.begin(_name)
            try:
                return _fn(self, *args, **kwargs)
            finally:
                rec.end()
                if outermost:
                    stats = self.stats
                    hits = stats.hits - before[0]
                    rec.count("engine.hits", hits)
                    rec.count("engine.lookups", hits + stats.misses - before[1])
                if _name == "engine.stacked_forward":
                    rec.count("engine.copies", len(args[0]))

        functools.update_wrapper(wrapper, fn)
        setattr(Engine, method, wrapper)


def _install_pipeline() -> None:
    from repro.attacks.base import ParameterAttack
    from repro.campaign.store import ResultStore
    from repro.coverage.bitmap import MaskMatrix
    from repro.models.training import Trainer
    from repro.testgen.gradient_gen import GradientTestGenerator
    from repro.validation import sequential, user
    from repro.validation.vendor import IPVendor

    _wrap_method(GradientTestGenerator, "synthesize_batch", lambda *_: "testgen.synth")
    _wrap_method(MaskMatrix, "best_candidate", lambda *_: "coverage.greedy")
    _wrap_method(Trainer, "fit", lambda *_: "models.train")
    _wrap_method(IPVendor, "build_package", lambda *_: "validation.package")
    _wrap_method(IPVendor, "measure_discrimination",
                 lambda *_: "validation.discrimination")
    _wrap_method(ParameterAttack, "apply",
                 lambda attack, *_: f"attacks.{type(attack).attack_name}.apply")
    _wrap_method(ResultStore, "append", lambda *_: "campaign.store_append")
    for module, fn_name, span in ((user, "report_from_outputs", "validation.replay"),
                                  (sequential, "decide_from_mismatches",
                                   "validation.sequential")):
        original = getattr(module, fn_name)
        _rebind(original, _span(lambda *_, _n=span: _n, original))


def _install_serve() -> None:
    from repro.serve.coalescer import BatchingCoalescer

    rec = RECORDER
    submit = BatchingCoalescer.submit

    @functools.wraps(submit)
    async def timed_submit(self, *args, **kwargs):
        # async: interleaves with other requests on the loop, so it is timed
        # outside the thread stacks and matched to its dispatch afterwards
        start = perf_counter()
        try:
            return await submit(self, *args, **kwargs)
        finally:
            if rec.phase is not None:
                rec.submits.append((start, perf_counter()))

    BatchingCoalescer.submit = timed_submit


def install() -> Recorder:
    """Wrap every measured entry point; returns the process recorder."""
    # import everything first so _rebind sees each module's bound names
    import repro.api  # noqa: F401
    import repro.campaign.runner  # noqa: F401
    import repro.online  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.testgen  # noqa: F401
    import repro.validation  # noqa: F401

    _install_nn()
    _install_engine()
    _install_pipeline()
    _install_serve()
    return RECORDER
