"""The :class:`Session` façade: managed engines + the three paper operations.

A session owns one :class:`~repro.api.config.RunConfig` and everything the
config governs: an LRU pool of memoizing :class:`~repro.engine.Engine`
instances keyed by the model's exact key, and an LRU cache of trained
experiments.  The paper-level operations —
:meth:`release`, :meth:`validate` and :meth:`sweep` — accept the typed
request objects of :mod:`repro.api.requests` (or plain dicts / keyword
arguments) and route all compute through the managed engines, so callers
never hand-wire Engine plumbing per call site::

    from repro.api import ReleaseRequest, Session, ValidateRequest

    with Session(batch_size=128) as session:
        released = session.release(ReleaseRequest(dataset="mnist", num_tests=12))
        outcome = session.validate(
            ValidateRequest(package=released.package), ip=released.model
        )
        assert outcome.passed

Seeding: every stochastic step derives its seed from the request seed, the
session seed and the step's coordinates through SHA-256 (the campaign
convention, :func:`repro.campaign.spec.derive_scenario_seed`), so a request
re-run in a fresh session reproduces its artefacts exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.api.config import RunConfig
from repro.api.requests import (
    ReleasePackage,
    ReleaseRequest,
    SweepRequest,
    ValidateRequest,
    ValidationOutcome,
)
from repro.engine import Engine
from repro.engine.cache import exact_model_key
from repro.nn.model import Sequential
from repro.utils.logging import get_logger

logger = get_logger("api.session")

#: black-box IP shapes accepted by validate(): a model or a batch callable
BlackBox = Union[Sequential, Callable[[np.ndarray], np.ndarray]]


class Session:
    """Configured entry point for the vendor/user/sweep workflow.

    Parameters
    ----------
    config:
        A :class:`RunConfig`, a plain dict of its fields, or ``None`` for
        defaults; keyword arguments override individual fields either way
        (``Session(batch_size=128)``).

    Engines built by the session share its batch size and memory budget;
    they are memoizing and pooled per exact model key, so repeated requests
    against the same trained model reuse cached gradient/mask matrices.  Sessions are context managers — leaving the
    ``with`` block drops the cached engines.

    **Concurrency contract.**  A session's *bookkeeping* is thread-safe: the
    engine pool, the prepared-experiment cache and :meth:`close` all run
    under one re-entrant lock, so concurrent callers (the
    :mod:`repro.serve` worker tier) can share a session without corrupting
    its LRUs.  The *compute* they hand back is not serialised here, and
    need not be for inference and the input-gradient and per-sample
    gradient queries: engines memoize through the thread-safe
    :class:`~repro.engine.cache.BatchResultCache`, and a model keeps no
    per-pass state (each call owns its tape), so concurrent queries of one
    model return the serial results bit for bit.  The queries that
    accumulate into ``Parameter.grad`` (training,
    ``loss_parameter_gradients``, ``output_gradients``) do share state, and
    callers must serialise those per model.  The serving layer still runs
    one dispatch at a time (see :mod:`repro.serve.service`).
    """

    def __init__(
        self,
        config: Union[RunConfig, Dict[str, object], None] = None,
        **overrides: object,
    ) -> None:
        self.config = RunConfig.coerce(config, **overrides)
        config = self.config
        if config.discover_plugins:
            from repro.registry import discover_entry_points

            discover_entry_points()
        self._engines: "OrderedDict[Tuple[str, object], Engine]" = OrderedDict()
        self._prepared: "OrderedDict[Tuple[object, ...], object]" = OrderedDict()
        # resolved once: every remote transport the session builds shares it
        self._fault_policy = self.config.fault_policy()
        self._closed = False
        # guards both LRUs and close() (see the class docstring's
        # concurrency contract); re-entrant because release()
        # calls prepare() and engine_for() while conceptually one operation
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop cached engines and prepared experiments.

        Closing is idempotent and safe to call concurrently with other
        session methods: late callers observe the closed flag and raise.
        """
        with self._lock:
            self._engines.clear()
            self._prepared.clear()
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- managed engines -----------------------------------------------------
    def engine_for(
        self, model: Sequential, criterion: Optional[object] = None
    ) -> Engine:
        """A memoizing engine for ``model`` under the session's config.

        Engines are pooled in an LRU keyed by the model's exact key
        (:func:`~repro.engine.cache.exact_model_key`, plus the criterion):
        re-requesting an engine for the same trained parameters returns the
        same instance — with its memo cache warm — while perturbed copies,
        even ones that differ in a single bit, get their own.  At most
        ``config.engine_cache_size`` engines are retained.
        """
        criterion_key = (
            (type(criterion).__name__, repr(criterion)) if criterion is not None else None
        )
        key = (exact_model_key(model), criterion_key)
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            engine = self._engines.get(key)
            if engine is not None and engine.model is model:
                self._engines.move_to_end(key)
                return engine
            cfg = self.config
            engine = Engine(
                model,
                criterion=criterion,
                batch_size=cfg.batch_size,
                memory_budget_bytes=cfg.memory_budget_bytes,
                spill_dir=cfg.spill_dir,
            )
            self._engines[key] = engine
            self._engines.move_to_end(key)
            while len(self._engines) > cfg.engine_cache_size:
                self._engines.popitem(last=False)
            return engine

    def engine_stats(self):
        """Merged :class:`~repro.engine.cache.CacheStats` across the pooled
        engines — the serving layer's ``/stats`` cache counters."""
        from repro.engine.cache import CacheStats

        with self._lock:
            engines = list(self._engines.values())
        merged = CacheStats()
        for engine in engines:
            merged = merged.merge(engine.stats)
        return merged

    # -- preparation ---------------------------------------------------------
    def prepare(
        self,
        dataset: str = "mnist",
        train_size: int = 300,
        test_size: int = 80,
        epochs: Optional[int] = None,
        width_multiplier: float = 0.125,
        seed: int = 0,
    ):
        """Train (or fetch the cached) experiment model for ``dataset``.

        Resolution goes through the registry's dataset recipe, exactly like
        :func:`repro.analysis.prepare_experiment`; results are cached in an
        LRU keyed by every preparation-relevant argument plus the session
        seed, so two release requests differing only in generation knobs
        train once.  Returns a
        :class:`~repro.analysis.sweep.PreparedExperiment`.
        """
        from repro.analysis.sweep import prepare_experiment
        from repro.campaign.spec import derive_scenario_seed

        key = (dataset, train_size, test_size, epochs, width_multiplier, seed)
        # training runs under the lock: concurrent requests for the same
        # preparation must train once and share the result, and training is
        # rare enough (LRU-cached) that the serialisation is the point
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            prepared = self._prepared.get(key)
            if prepared is not None:
                self._prepared.move_to_end(key)
                return prepared

            rng = derive_scenario_seed(self.config.seed, "prepare", dataset, seed)
            logger.info(
                "preparing %s (train=%d, test=%d)", dataset, train_size, test_size
            )
            prepared = prepare_experiment(
                dataset,
                train_size=train_size,
                test_size=test_size,
                width_multiplier=width_multiplier,
                epochs=epochs,
                rng=rng,
            )
            self._prepared[key] = prepared
            self._prepared.move_to_end(key)
            while len(self._prepared) > self.config.prepared_cache_size:
                self._prepared.popitem(last=False)
            return prepared

    # -- the three paper operations ------------------------------------------
    def release(
        self,
        request: Union[ReleaseRequest, Dict[str, object], None] = None,
        **overrides: object,
    ) -> ReleasePackage:
        """Vendor side of Fig. 1: train, generate tests, build the package."""
        req = ReleaseRequest.coerce(request, **overrides)
        from repro.campaign.spec import derive_scenario_seed
        from repro.coverage.activation import resolve_criterion
        from repro.registry import registry
        from repro.testgen.strategies import build_generator
        from repro.validation.vendor import IPVendor

        prepared = self.prepare(
            req.dataset,
            train_size=req.train_size,
            test_size=req.test_size,
            epochs=req.epochs,
            width_multiplier=req.width_multiplier,
            seed=req.seed,
        )
        criterion = resolve_criterion(req.criterion, prepared.model)
        engine = self.engine_for(prepared.model, criterion)

        # the strategy's registry-declared knobs, drawn from request fields
        # (the campaign-runner convention)
        kwargs: Dict[str, object] = {}
        for kwarg, request_field in registry.knobs("strategies", req.strategy).items():
            try:
                kwargs[kwarg] = getattr(req, str(request_field))
            except AttributeError as exc:
                raise ValueError(
                    f"strategy {req.strategy!r} declares knob {kwarg!r} from "
                    f"field {request_field!r}, which ReleaseRequest does not define"
                ) from exc

        generation_seed = derive_scenario_seed(
            self.config.seed, "release", req.dataset, req.criterion, req.strategy, req.seed
        )
        generator = build_generator(
            req.strategy,
            prepared.model,
            prepared.train,
            criterion=criterion,
            rng=generation_seed,
            engine=engine,
            **kwargs,
        )
        result = generator.generate(req.num_tests)
        vendor = IPVendor(prepared.model, prepared.train, criterion=criterion)
        discrimination_seed = derive_scenario_seed(
            self.config.seed, "discrimination", req.dataset, req.seed
        )
        package = vendor.build_package(
            result,
            output_atol=req.output_atol,
            include_coverage_masks=req.include_coverage_masks,
            engine=engine,
            measure_discrimination=req.measure_discrimination,
            discrimination_trials=req.discrimination_trials,
            discrimination_seed=discrimination_seed,
        )
        released = ReleasePackage(
            request=req,
            package=package,
            model=prepared.model,
            generation=result,
            test_accuracy=prepared.test_accuracy,
        )
        logger.info("%s", released.describe())
        return released

    def validate(
        self,
        request: Union[ValidateRequest, Dict[str, object], None] = None,
        ip: Optional[BlackBox] = None,
        **overrides: object,
    ) -> ValidationOutcome:
        """User side of Fig. 1: replay the package against a black-box IP.

        The IP is ``ip`` when given (a model or any batch callable); else it
        is loaded from the request's ``model_path`` by rebuilding ``arch``
        from the registry and loading the shipped parameters into it — or,
        when ``remote_url`` is set, queried over the wire through a
        :class:`~repro.online.RemoteModel` without ever loading it locally.

        ``mode="sequential"`` replaces full replay with the early-stopping
        verifier of :mod:`repro.online`: fingerprints go out in
        discriminative-power order and the SPRT walk stops at the request's
        ``confidence`` (or ``query_budget``), reporting queries-to-decision.
        """
        req = ValidateRequest.coerce(request, **overrides)
        from dataclasses import replace

        from repro.online import OnlineVerifier, RemoteModel
        from repro.validation.user import validate_ip

        package = req.resolve_package()
        if req.remote_url is not None or req.transport is not None:
            ip = self._build_remote(req, ip)
        if ip is None:
            if req.model_path is None:
                raise ValueError(
                    "no IP to validate: pass ip=... or set model_path on the request"
                )
            ip = self._load_black_box(req)
        if req.mode == "sequential":
            sequential_report = OnlineVerifier(
                ip,
                package,
                confidence=req.confidence,
                query_budget=req.query_budget,
            ).verify()
            outcome = ValidationOutcome.from_sequential_report(
                sequential_report, package
            )
        else:
            report = validate_ip(ip, package)
            outcome = ValidationOutcome.from_report(report, package)
        if isinstance(ip, RemoteModel):
            outcome = replace(outcome, ledger=ip.stats())
        logger.info("%s", outcome.summary())
        return outcome

    def _build_remote(
        self, req: ValidateRequest, ip: Optional[BlackBox]
    ) -> "object":
        """Wrap the request's remote target in a :class:`~repro.online.RemoteModel`.

        ``remote_url`` selects the ``http`` transport against a live serve
        process (``model_path`` is the *server-side* path under its
        ``--artifacts-root``); ``transport`` overrides the transport name,
        and the ``callable`` transport wraps the locally supplied ``ip``.
        """
        from repro.online import RemoteModel
        from repro.registry import registry

        name = req.transport or ("http" if req.remote_url is not None else "callable")
        kwargs: Dict[str, object] = {}
        if name == "callable":
            if ip is None:
                raise ValueError(
                    "transport='callable' wraps a locally supplied ip; pass ip=..."
                )
            target = ip if not isinstance(ip, Sequential) else ip.predict
            kwargs["fn"] = target
        else:
            if req.remote_url is None:
                raise ValueError(f"transport {name!r} needs remote_url on the request")
            kwargs.update(
                url=req.remote_url,
                model_path=req.model_path,
                arch=req.arch,
                width_multiplier=req.width_multiplier,
                input_size=req.input_size,
            )
        transport = registry.create("transports", name, **kwargs)
        remote_kwargs: Dict[str, object] = {}
        if self._fault_policy is not None:
            remote_kwargs["policy"] = self._fault_policy
        if req.micro_batch is not None:
            remote_kwargs["micro_batch"] = req.micro_batch
        return RemoteModel(transport, **remote_kwargs)

    def load_ip(
        self,
        request: Union[ValidateRequest, Dict[str, object], None] = None,
        **overrides: object,
    ) -> Sequential:
        """Load the black-box IP a validate request points at, without
        validating it — the serving layer resolves models once, replays the
        package through a managed engine, then scores with the shared
        comparison rule (:func:`repro.validation.report_from_outputs`)."""
        req = ValidateRequest.coerce(request, **overrides)
        if req.model_path is None:
            raise ValueError("load_ip requires model_path on the request")
        return self._load_black_box(req)

    def _load_black_box(self, req: ValidateRequest) -> Sequential:
        """Rebuild the received model file as a queryable black box.

        ``req.width_multiplier`` means the same thing it meant at release
        time: when ``arch`` also names a dataset with an experiment recipe,
        the recipe's ``width_scale`` is applied exactly as
        :func:`~repro.analysis.prepare_experiment` applied it (cifar trains
        at half the requested width), so a symmetric release/validate pair
        always rebuilds matching parameter shapes.
        """
        from repro.nn.serialization import load_metadata, load_model_into
        from repro.registry import registry

        path = Path(str(req.model_path))
        input_size = req.input_size
        if input_size is None:
            shape = load_metadata(path).get("input_shape") or ()
            if shape:
                input_size = int(shape[-1])
        try:
            recipe = registry.metadata("datasets", req.arch)
        except ValueError:
            recipe = {}
        width = req.width_multiplier
        model_name = req.arch
        if "model" in recipe:
            model_name = str(recipe["model"])
            width = width * float(recipe.get("width_scale", 1.0))
        build_kwargs: Dict[str, object] = {
            "width_multiplier": width,
            "rng": 0,
        }
        if input_size is not None:
            build_kwargs["input_size"] = input_size
        model = registry.create("models", model_name, **build_kwargs)
        load_model_into(model, path, verify_digest=req.verify_digest)
        return model  # type: ignore[return-value]

    def sweep(
        self,
        request: Union[SweepRequest, Dict[str, object], None] = None,
        **overrides: object,
    ):
        """Run (or resume) a campaign sweep; returns its
        :class:`~repro.campaign.CampaignSummary`.

        Delegates to :func:`repro.campaign.run_campaign`, so scenario
        results — digests, seeds, detection outcomes — are identical to the
        ``python -m repro campaign`` path.
        """
        req = SweepRequest.coerce(request, **overrides)
        from repro.campaign.runner import run_campaign
        from repro.campaign.store import ResultStore

        spec = req.resolve_spec()
        shards = (
            req.shards
            if req.shards is not None
            else (
                self.config.shards
                if self.config.shards is not None
                else spec.shards
            )
        )
        if shards > 1:
            summary = run_campaign(
                spec,
                req.store,
                progress=logger.info,
                spill_dir=self.config.spill_dir,
                shards=shards,
            )
            if req.report is not None:
                from repro.analysis.campaign import write_campaign_report
                from repro.campaign.distributed import find_shard_stores

                merged: Dict[str, object] = {}
                for path in find_shard_stores(req.store):
                    for record in ResultStore(path).records():
                        merged.setdefault(record.digest, record)
                write_campaign_report(
                    list(merged.values()), req.report, title=spec.name
                )
            return summary
        store = ResultStore(req.store)
        summary = run_campaign(
            spec,
            store,
            progress=logger.info,
            spill_dir=self.config.spill_dir,
            shards=1,
        )
        if req.report is not None:
            from repro.analysis.campaign import write_campaign_report

            write_campaign_report(store.records(), req.report, title=spec.name)
        return summary


# ---------------------------------------------------------------------------
# module-level one-shot conveniences
# ---------------------------------------------------------------------------


def release(
    request: Union[ReleaseRequest, Dict[str, object], None] = None,
    config: Union[RunConfig, Dict[str, object], None] = None,
) -> ReleasePackage:
    """One-shot :meth:`Session.release` in a throwaway session."""
    with Session(config) as session:
        return session.release(request)


def validate(
    request: Union[ValidateRequest, Dict[str, object], None] = None,
    ip: Optional[BlackBox] = None,
    config: Union[RunConfig, Dict[str, object], None] = None,
) -> ValidationOutcome:
    """One-shot :meth:`Session.validate` in a throwaway session."""
    with Session(config) as session:
        return session.validate(request, ip=ip)


def sweep(
    request: Union[SweepRequest, Dict[str, object], None] = None,
    config: Union[RunConfig, Dict[str, object], None] = None,
):
    """One-shot :meth:`Session.sweep` in a throwaway session."""
    with Session(config) as session:
        return session.sweep(request)


__all__ = ["BlackBox", "Session", "release", "sweep", "validate"]
