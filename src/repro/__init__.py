"""repro — reproduction of "On Functional Test Generation for Deep Neural
Network IPs" (Luo, Li, Wei, Xu — DATE 2019).

The public entry surface is the :mod:`repro.api` façade, lazily exported
here (PEP 562), so ``import repro`` stays instant and numpy-heavy
subsystems load only when touched::

    from repro import ReleaseRequest, Session, ValidateRequest

    with Session() as session:
        # vendor: train the IP, generate functional tests, package them
        released = session.release(
            ReleaseRequest(dataset="mnist", num_tests=20, candidate_pool=100)
        )

        # attacker: perturb parameters in transit
        from repro.attacks import SingleBiasAttack

        tampered = SingleBiasAttack(rng=1).apply(released.model).model

        # user: validate the black-box IP from outputs alone
        outcome = session.validate(package=released.package, ip=tampered)
        assert outcome.detected

The same operations run from the command line (``python -m repro release``,
``validate``, ``verify``, ``campaign``, ``serve``, ``registry``), and every
pluggable component — test-generation strategies, attacks, coverage
criteria, datasets, models — resolves by name through the
cross-subsystem :mod:`repro.registry`.

Subsystem map:

* :mod:`repro.api` — the façade: :class:`Session`, :class:`RunConfig`, and
  the typed request/result objects of the three paper-level operations.
* :mod:`repro.registry` — the namespaced plugin registry behind every
  by-name lookup (``register``/``names``/``create``; optional entry-point
  discovery for third-party packages).
* :mod:`repro.nn` — from-scratch NumPy deep-learning substrate (layers,
  losses, optimisers, batched per-sample gradient extraction).
* :mod:`repro.engine` — the batched execution engine: memoizing
  forward/gradient/mask queries, and a fused ``model_axis`` path for
  stacked replays of perturbed copies.
* :mod:`repro.data` — synthetic stand-ins for MNIST, CIFAR-10, ImageNet and
  noise populations.
* :mod:`repro.models` — the Table-I architectures and a trainer.
* :mod:`repro.coverage` — validation (parameter) coverage and the
  neuron-coverage baseline, packed-bitset backed.
* :mod:`repro.testgen` — Algorithms 1 and 2, the combined method, and
  baselines, registered as named strategies.
* :mod:`repro.attacks` — SBA, GDA, random and bit-flip parameter
  perturbations, registered as named attack families.
* :mod:`repro.validation` — the vendor/user scheme and the detection-rate
  experiment harness.
* :mod:`repro.analysis` — figure/table builders, campaign aggregation and
  reporting.
* :mod:`repro.campaign` — declarative, resumable attack × model × criterion
  × strategy × budget sweeps.
* :mod:`repro.serve` — validation as a service: the async multi-tenant
  HTTP endpoint with the cross-request batching coalescer
  (``python -m repro serve``).
* :mod:`repro.online` — query-budgeted online verification: the
  fault-tolerant :class:`~repro.online.RemoteModel` transport and the
  SPRT sequential verifier (``python -m repro verify``).
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: lazily-exported façade names → the module that defines them
_LAZY_EXPORTS = {
    "Session": "repro.api",
    "RunConfig": "repro.api",
    "ReleaseRequest": "repro.api",
    "ReleasePackage": "repro.api",
    "ValidateRequest": "repro.api",
    "ValidationOutcome": "repro.api",
    "SweepRequest": "repro.api",
    "release": "repro.api",
    "validate": "repro.api",
    "sweep": "repro.api",
    "api_surface": "repro.api",
    "register": "repro.registry",
    "FaultPolicy": "repro.faults",
    "ServeConfig": "repro.serve",
    "ValidationService": "repro.serve",
    "RemoteModel": "repro.online",
    "verify_online": "repro.online",
}

__all__ = ["__version__", "get_registry", *sorted(_LAZY_EXPORTS)]

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api import (  # noqa: F401
        ReleasePackage,
        ReleaseRequest,
        RunConfig,
        Session,
        SweepRequest,
        ValidateRequest,
        ValidationOutcome,
        api_surface,
        release,
        sweep,
        validate,
    )
    from repro.faults import FaultPolicy  # noqa: F401
    from repro.online import RemoteModel, verify_online  # noqa: F401
    from repro.registry import register  # noqa: F401
    from repro.serve import ServeConfig, ValidationService  # noqa: F401


def get_registry():
    """The process-wide :class:`repro.registry.Registry` singleton."""
    from repro.registry import registry

    return registry


def __getattr__(name: str):
    """PEP 562 lazy export: import the façade only when first touched."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target)
    value = getattr(module, name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
