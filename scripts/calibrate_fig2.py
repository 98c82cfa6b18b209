"""Calibration helper: explore Fig. 2 orderings under different noise models.

Not part of the library API — used during development to pick the defaults
documented in DESIGN.md / EXPERIMENTS.md.  Run with ``python
scripts/calibrate_fig2.py``.
"""

import time

import numpy as np

from repro.coverage import ActivationCriterion, mean_validation_coverage
from repro.data import (
    generate_imagenet_proxy,
    generate_noise_images,
    load_synth_cifar,
    load_synth_mnist,
)
from repro.models.training import Trainer
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.utils.config import TrainingConfig


def report(model, train, label, epsilons, scals):
    stats_mean = float(train.images.mean())
    stats_std = float(train.images.std())
    pops = {
        "noise-0.5": generate_noise_images(15, train.sample_shape, rng=1),
        "noise-matched": generate_noise_images(
            15, train.sample_shape, rng=1, mean=stats_mean, std=stats_std
        ),
        "proxy": generate_imagenet_proxy(15, train.sample_shape, rng=2),
        "train": train.take(15, rng=3),
    }
    for scal in scals:
        for eps in epsilons:
            crit = ActivationCriterion(epsilon=eps, scalarization=scal)
            vals = {
                k: mean_validation_coverage(model, d.images, crit)
                for k, d in pops.items()
            }
            print(
                f"{label} scal={scal} eps={eps:g}: "
                + " ".join(f"{k}={v:.2f}" for k, v in vals.items()),
                flush=True,
            )


def main():
    t0 = time.time()
    train, test = load_synth_mnist(600, 120, rng=0)
    m = mnist_cnn(width_multiplier=0.125, rng=0)
    h = Trainer(TrainingConfig(epochs=15, batch_size=32, learning_rate=2e-3)).fit(
        m, train, test
    )
    print("mnist acc", h.final_test_accuracy, "t=%.0fs" % (time.time() - t0), flush=True)
    report(m, train, "MNIST-tanh", [1e-2, 3e-2, 1e-1], ["sum", "predicted"])

    t0 = time.time()
    ctrain, ctest = load_synth_cifar(800, 150, rng=0)
    c = cifar_cnn(width_multiplier=0.125, rng=0)
    h = Trainer(TrainingConfig(epochs=15, batch_size=32, learning_rate=2e-3)).fit(
        c, ctrain, ctest
    )
    print("cifar acc", h.final_test_accuracy, "t=%.0fs" % (time.time() - t0), flush=True)
    report(c, ctrain, "CIFAR-relu", [0.0], ["sum"])


if __name__ == "__main__":
    main()
