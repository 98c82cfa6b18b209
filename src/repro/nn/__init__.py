"""From-scratch NumPy deep-learning substrate.

This subpackage replaces the TensorFlow/PyTorch dependency of the original
paper: it provides layers, activations, losses, optimisers and a
:class:`~repro.nn.model.Sequential` model with explicit forward/backward
passes.  Crucially for the paper's method it exposes

* parameter gradients of a scalarised output ``∇θ F(x)`` (validation
  coverage, Section IV-A),
* input gradients of a loss (gradient-based test generation, Section IV-C,
  and the GDA attack), and
* parameter gradients of a loss (training and the GDA attack).

Besides the single-sample queries, every layer implements
``backward_batch`` — a backward pass that keeps parameter gradients
*separate per sample* instead of summing them over the batch — and
:meth:`~repro.nn.model.Sequential.output_gradients_batch` builds the whole
``(N, num_parameters)`` gradient matrix in one pass.  These are the
primitives of the batched execution layer in :mod:`repro.engine`; use an
:class:`~repro.engine.Engine` (which adds chunking, memoization and
trunk-sharing stacked replay on top) rather than calling them or raw
``Model.forward`` directly whenever a model is queried repeatedly or for
many samples.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
    is_exact_zero_gradient,
)
from repro.nn.initializers import (
    constant,
    default_for_activation,
    get_initializer,
    he_normal,
    initialize,
    normal,
    ones,
    uniform,
    xavier_normal,
    xavier_uniform,
    zeros,
)
from repro.nn.layers import (
    ActivationLayer,
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    col2im,
    im2col,
)
from repro.nn.losses import (
    Loss,
    MeanSquaredError,
    NegativeLogit,
    SoftmaxCrossEntropy,
    get_loss,
    one_hot,
)
from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    per_class_accuracy,
    top_k_accuracy,
)
from repro.nn.model import SCALARIZATIONS, Sequential
from repro.nn.optimizers import SGD, Adam, Momentum, Optimizer, StepDecay, get_optimizer
from repro.nn.serialization import (
    load_metadata,
    load_model_into,
    load_parameters,
    parameter_digest,
    save_model,
)
from repro.nn.tensor import Parameter, ParameterView

__all__ = [
    # activations
    "Activation",
    "Identity",
    "LeakyReLU",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "get_activation",
    "is_exact_zero_gradient",
    # initializers
    "constant",
    "default_for_activation",
    "get_initializer",
    "he_normal",
    "initialize",
    "normal",
    "ones",
    "uniform",
    "xavier_normal",
    "xavier_uniform",
    "zeros",
    # layers
    "ActivationLayer",
    "AvgPool2D",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "col2im",
    "im2col",
    # losses
    "Loss",
    "MeanSquaredError",
    "NegativeLogit",
    "SoftmaxCrossEntropy",
    "get_loss",
    "one_hot",
    # metrics
    "accuracy",
    "confusion_matrix",
    "per_class_accuracy",
    "top_k_accuracy",
    # model
    "SCALARIZATIONS",
    "Sequential",
    # optimizers
    "SGD",
    "Adam",
    "Momentum",
    "Optimizer",
    "StepDecay",
    "get_optimizer",
    # serialization
    "load_metadata",
    "load_model_into",
    "load_parameters",
    "parameter_digest",
    "save_model",
    # tensors
    "Parameter",
    "ParameterView",
]
