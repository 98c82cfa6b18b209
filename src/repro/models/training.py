"""Training loop for the zoo models.

The paper trains its models to 98.9 % (MNIST) and 84.26 % (CIFAR-10) test
accuracy before generating functional tests.  The :class:`Trainer` reproduces
that step on the synthetic datasets: minibatch SGD-family optimisation of the
softmax cross-entropy, accuracy tracking per epoch and optional early stopping
once a target accuracy is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.datasets import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import get_optimizer
from repro.utils.config import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

logger = get_logger("models.training")


@dataclass
class TrainingHistory:
    """Per-epoch record of the training run."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def final_test_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ValueError("no epochs have been recorded")
        return self.test_accuracy[-1]

    def to_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "test_accuracy": list(self.test_accuracy),
        }


class Trainer:
    """Minibatch trainer for :class:`~repro.nn.model.Sequential` classifiers."""

    def __init__(self, config: Optional[TrainingConfig] = None) -> None:
        self.config = config or TrainingConfig()
        self.config.validate()

    def fit(
        self,
        model: Sequential,
        train: Dataset,
        test: Optional[Dataset] = None,
    ) -> TrainingHistory:
        """Train ``model`` on ``train``; evaluate on ``test`` each epoch.

        Returns the per-epoch history.  If
        :attr:`TrainingConfig.early_stop_accuracy` is set, training stops once
        the evaluation accuracy reaches the target (using training accuracy
        when no test set is provided).
        """
        cfg = self.config
        if len(train) == 0:
            raise ValueError("training dataset is empty")
        optimizer = get_optimizer(cfg.optimizer, cfg.learning_rate, cfg.weight_decay)
        loss_fn = SoftmaxCrossEntropy()
        rng = as_generator(cfg.seed)
        history = TrainingHistory()

        for epoch in range(cfg.epochs):
            epoch_losses: List[float] = []
            correct = 0
            seen = 0
            for images, labels in train.batches(
                cfg.batch_size, shuffle=cfg.shuffle, rng=rng
            ):
                tape: list = []
                logits = model.forward(images, training=True, tape=tape)
                loss, grad = loss_fn.value_and_grad(logits, labels)
                # the network-input gradient is never read here
                _, grads = model.backward(grad, tape, need_input_grad=False)
                # the step's record goes now: the optimizer step, the next
                # step's forward and the epoch's evaluation run without it
                del tape
                optimizer.step(model.parameters(), grads)
                epoch_losses.append(loss)
                correct += int(np.sum(np.argmax(logits, axis=1) == labels))
                seen += len(labels)

            train_acc = correct / max(seen, 1)
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.train_accuracy.append(float(train_acc))

            if test is not None and len(test):
                test_acc = accuracy(model.predict_classes(test.images), test.labels)
            else:
                test_acc = train_acc
            history.test_accuracy.append(float(test_acc))
            logger.info(
                "epoch %d/%d: loss=%.4f train_acc=%.3f eval_acc=%.3f",
                epoch + 1,
                cfg.epochs,
                history.train_loss[-1],
                train_acc,
                test_acc,
            )
            if (
                cfg.early_stop_accuracy is not None
                and test_acc >= cfg.early_stop_accuracy
            ):
                logger.info("early stop: accuracy target %.3f reached", cfg.early_stop_accuracy)
                break
        return history

    def evaluate(self, model: Sequential, dataset: Dataset) -> float:
        """Classification accuracy of ``model`` on ``dataset``."""
        if len(dataset) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        return accuracy(model.predict_classes(dataset.images), dataset.labels)


def train_model(
    model: Sequential,
    train: Dataset,
    test: Optional[Dataset] = None,
    config: Optional[TrainingConfig] = None,
) -> TrainingHistory:
    """Convenience wrapper: ``Trainer(config).fit(model, train, test)``."""
    return Trainer(config).fit(model, train, test)


__all__ = ["Trainer", "TrainingHistory", "train_model"]
