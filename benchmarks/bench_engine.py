"""Micro-benchmark: batched engine vs per-sample reference, plus the fused path.

Measures mean validation coverage (the Fig. 2 quantity) over a 100-image
pool on a Table-I-style MNIST model, timed warmed best-of-N with
:func:`_timing.best_of`, comparing

* ``mean_validation_coverage_reference`` — one forward/backward pass per
  image (the pre-engine hot path),
* ``mean_validation_coverage`` — chunked batched passes through
  :class:`repro.engine.Engine` (``numpy`` backend),
* the memoized revisit (greedy-loop / ablation-sweep access pattern), and
* the ``model_axis`` backend: one fused ``stacked_forward`` dispatch over 8
  perturbed model copies vs the bit-identical per-copy loop (the Tables
  II/III detection inner loop).

Asserted acceptance criteria:

* ≥ 5× batched-vs-per-sample wall-clock speedup and ≤ 1e-8 equivalence;
* ≥ 3× fused-vs-loop wall-clock on the 8-copy stacked replay at exact
  (bitwise) equality of the stacked logits.

Run with::

    PYTHONPATH=src python benchmarks/bench_engine.py

Set ``BENCH_ENGINE_SKIP_SPEEDUP=1`` to enforce only the numerical-equivalence
assertions (for shared CI runners whose wall-clock is too noisy for reliable
speedup ratios).
"""

from __future__ import annotations

import os

import numpy as np
from _timing import best_of

from repro.attacks.base import bias_flat_indices
from repro.coverage.parameter_coverage import (
    mean_validation_coverage,
    mean_validation_coverage_reference,
)
from repro.data.synth_digits import generate_digits
from repro.engine import Engine
from repro.models.zoo import mnist_cnn

POOL_SIZE = 100
REQUIRED_SPEEDUP = 5.0
REQUIRED_MODEL_AXIS_SPEEDUP = 3.0
MODEL_AXIS_COPIES = 8
TOLERANCE = 1e-8


def main() -> None:
    model = mnist_cnn(width_multiplier=0.125, input_size=28, rng=0)
    images = generate_digits(POOL_SIZE, rng=1, size=28).images
    print(f"model: {model.name} ({model.num_parameters()} parameters)")
    print(f"pool:  {POOL_SIZE} images of shape {images.shape[1:]}")

    reference_s, reference = best_of(
        lambda: mean_validation_coverage_reference(model, images), repeats=3
    )
    print(f"per-sample reference: {reference_s * 1e3:9.1f} ms  (coverage {reference:.6f})")

    # fresh uncached engine each call: measures the batched compute, not the
    # memo cache
    batched_s, batched = best_of(
        lambda: mean_validation_coverage(model, images, engine=Engine(model, cache=False)),
        repeats=5,
    )
    print(f"batched engine:       {batched_s * 1e3:9.1f} ms  (coverage {batched:.6f})")

    engine = Engine(model)
    engine.mean_validation_coverage(images)  # warm the memo cache
    cached_s, cached = best_of(lambda: engine.mean_validation_coverage(images), repeats=3)
    print(
        f"memoized revisit:     {cached_s * 1e3:9.1f} ms  "
        f"(coverage {cached:.6f}, hit rate {engine.stats.hit_rate:.3f})"
    )

    speedup = reference_s / batched_s
    error = abs(reference - batched)
    print(f"\nspeedup (batched vs per-sample): {speedup:.1f}x")
    print(f"numerical difference:            {error:.2e}")

    # model-axis fused dispatch vs the bit-identical per-copy loop: the
    # detection inner loop at MODEL_AXIS_COPIES perturbed copies per group.
    # Each copy carries a large fault on a distinct output-head bias (the
    # single-bias attack's most effective placement, and the fused path's
    # design point — the shared trunk is computed once for the whole group)
    biases = bias_flat_indices(model)
    copies = []
    for trial in range(MODEL_AXIS_COPIES):
        copy = model.copy()
        copy.parameter_view().add_scalar(int(biases[-1 - trial]), 10.0)
        copies.append(copy)
    loop_engine = Engine(model, cache=False)
    looped_s, _ = best_of(lambda: loop_engine.stacked_forward(copies, images), repeats=5)
    fused_engine = Engine(model, backend="model_axis", cache=False)
    fused_s, _ = best_of(lambda: fused_engine.stacked_forward(copies, images), repeats=5)
    model_axis_speedup = looped_s / fused_s
    model_axis_identical = np.array_equal(
        loop_engine.stacked_forward(copies, images),
        fused_engine.stacked_forward(copies, images),
    )
    print(
        f"model-axis fused:     {fused_s * 1e3:9.1f} ms  "
        f"({MODEL_AXIS_COPIES} copies, {model_axis_speedup:.1f}x vs per-copy loop "
        f"{looped_s * 1e3:.1f} ms)"
    )

    assert error <= TOLERANCE, (
        f"batched coverage differs from reference by {error:.2e} > {TOLERANCE:.0e}"
    )
    assert abs(cached - batched) <= TOLERANCE
    assert model_axis_identical, (
        "model-axis stacked logits are not bitwise identical to the per-copy loop"
    )
    if os.environ.get("BENCH_ENGINE_SKIP_SPEEDUP"):
        print(f"OK: ≤{TOLERANCE:.0e} equivalence holds (speedup assertions skipped)")
        return
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched path is only {speedup:.1f}x faster; required ≥{REQUIRED_SPEEDUP}x"
    )
    assert model_axis_speedup >= REQUIRED_MODEL_AXIS_SPEEDUP, (
        f"model-axis fused dispatch is only {model_axis_speedup:.1f}x faster; "
        f"required ≥{REQUIRED_MODEL_AXIS_SPEEDUP}x at {MODEL_AXIS_COPIES} copies"
    )
    print(f"OK: ≥{REQUIRED_SPEEDUP:g}x speedup and ≤{TOLERANCE:.0e} equivalence hold")


if __name__ == "__main__":
    main()
