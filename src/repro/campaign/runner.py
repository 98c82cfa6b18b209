"""The resumable campaign runner.

Executes the scenario cross-product of a :class:`~repro.campaign.spec
.CampaignSpec` against the existing engine stack, sharing every piece of
work that is common to several scenarios:

* **per model** — the victim is trained once and served by one memoizing
  :class:`~repro.engine.Engine`, so the packed-mask and gradient queries
  behind package generation are computed once per model rather than once
  per scenario;
* **per (model, criterion, strategy)** — one validation package is generated
  at the campaign's *maximum* budget; smaller budgets replay prefixes of it
  (greedy generators are prefix-stable, and always generating at max budget
  keeps non-greedy ones — e.g. ``random`` — resume-deterministic);
* **per (model, attack)** — one sequence of perturbation trials is drawn and
  every package's stacked test prefix is replayed against each perturbed
  copy by :func:`~repro.validation.detection.replay_trials` (the Tables
  II/III paired-trial protocol); every scenario's detections and
  queries-to-decision are reductions of its ``(trials, tests)`` mismatch
  matrix.

Every random draw is seeded from the spec seed and the group's coordinates
(SHA-256, see :func:`~repro.campaign.spec.derive_scenario_seed`), never from
"what else is pending" — so a resumed campaign computes byte-identical
results for the scenarios it still has to run.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.spec import CampaignSpec, Scenario, derive_scenario_seed
from repro.campaign.store import FailureRecord, ResultStore, ScenarioRecord
from repro.faults import CampaignAbortedError, inject
from repro.coverage.activation import resolve_criterion
from repro.coverage.bitmap import CoverageMap
from repro.engine import Engine
from repro.models.zoo import MODEL_LEARNING_RATES
from repro.registry import registry
from repro.testgen.strategies import build_generator
from repro.utils.config import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.rng import spawn
from repro.validation.detection import (
    default_attack_factories,
    replay_trials,
    stack_package_prefixes,
)
from repro.validation.package import ValidationPackage
from repro.validation.sequential import decide_from_mismatches, entropy_order
from repro.validation.vendor import IPVendor

logger = get_logger("campaign.runner")

#: package dict key for one (criterion, strategy) coordinate
PackageKey = Tuple[str, str]

ProgressCallback = Callable[[str], None]

#: distinct models whose trained victim, memoizing engine and generated
#: packages stay resident in a runner at once — shard workers mostly touch
#: their statically-assigned models, so a small LRU keeps stolen-unit
#: evictions from growing memory with the campaign's model axis
MODEL_CACHE_SLOTS = 4


@dataclass
class CampaignSummary:
    """What one :meth:`CampaignRunner.run` invocation did."""

    total: int
    executed: int
    skipped: int
    wall_s: float
    records: List[ScenarioRecord] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def describe(self) -> str:
        base = (
            f"executed {self.executed} scenarios, skipped {self.skipped} "
            f"already-completed, {self.total} total ({self.wall_s:.1f}s)"
        )
        if self.failures:
            base += f"; {self.failed} quarantined"
        return base


def _generator_kwargs(spec: CampaignSpec, strategy: str) -> Dict[str, object]:
    """The strategy's registry-declared knobs, drawn from the spec fields."""
    kwargs: Dict[str, object] = {}
    for kwarg, spec_field in registry.knobs("strategies", strategy).items():
        try:
            kwargs[kwarg] = getattr(spec, str(spec_field))
        except AttributeError as exc:
            raise ValueError(
                f"strategy {strategy!r} declares knob {kwarg!r} from spec "
                f"field {spec_field!r}, which CampaignSpec does not define"
            ) from exc
    return kwargs


def _prefix_coverages(package: ValidationPackage, budgets: Sequence[int]) -> Dict[int, float]:
    """Validation coverage of the package's test prefixes, one per budget.

    Budgets are processed in increasing order so the running union extends
    incrementally instead of re-scanning from row 0 per budget.
    """
    masks = package.coverage_masks
    if masks is None:
        return {int(b): float("nan") for b in budgets}
    coverages: Dict[int, float] = {}
    union = CoverageMap(masks.nbits)
    done = 0
    for budget in sorted(int(b) for b in budgets):
        upto = min(budget, len(masks))
        for i in range(done, upto):
            union.union_(masks.row(i))
        done = upto
        coverages[budget] = union.fraction
    return coverages


class CampaignRunner:
    """Executes the pending scenarios of a campaign spec into a store.

    Parameters
    ----------
    spec: the declarative campaign definition.
    store: the append-only result store; scenarios whose digest is already
        present are skipped (resume semantics).
    backend: ``"numpy"`` or ``"model_axis"``, both of which run the
        engine's one stacked path; any other name raises.  It changes
        nothing (see the comment in ``__init__``).
    progress: optional callback receiving human-readable progress lines.
    max_failures: abort the campaign (``CampaignAbortedError``) once more
        than this many scenarios have been quarantined in this run; ``None``
        means never abort — every failure is quarantined and the run
        completes.
    spill_dir: packed-mask spill directory for the per-model engines.
    model_exchange: optional cross-process prepared-model cache (any object
        with ``get(key) -> PreparedExperiment | None`` and ``put(key,
        prepared)``, keyed by :meth:`CampaignSpec.training_digest`) — the
        distributed runner's shard workers share one
        :class:`~repro.campaign.distributed.ModelExchange` so a stolen work
        unit attaches the already-trained victim instead of retraining it.

    A runner may execute several :meth:`run` calls (the distributed shard
    workers call it once per work unit): trained models, their memoizing
    engines and generated packages are cached across calls in a small LRU
    (:data:`MODEL_CACHE_SLOTS` models) until :meth:`close` (the runner is a
    context manager).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        backend: str = "numpy",
        progress: Optional[ProgressCallback] = None,
        max_failures: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        model_exchange: Optional[object] = None,
    ) -> None:
        spec.validate()
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be non-negative")
        # a retired option kept for the benchmark harness only:
        # perfbench/workloads.py passes ``backend=args.backend`` (default
        # "model_axis") and perfbench/smoke.py runs ``--backend numpy``.
        # Neither name changes anything; a later benchmark change drops
        # the flag there and this keyword here.
        if backend not in ("numpy", "model_axis"):
            raise ValueError(f"unknown backend {backend!r}; choose from numpy, model_axis")
        self.spec = spec
        self.store = store
        self._progress = progress
        self.max_failures = max_failures
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.model_exchange = model_exchange
        self._failures: List[FailureRecord] = []
        #: per-model shared work, retained across run() calls:
        #: model name -> (prepared, engine, {package key: package})
        self._model_cache: "OrderedDict[str, tuple]" = OrderedDict()

    def _emit(self, message: str) -> None:
        logger.info("%s", message)
        if self._progress is not None:
            self._progress(message)

    def close(self) -> None:
        """Drop every cached per-model engine, package and trained model."""
        self._model_cache.clear()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _quarantine(self, scenarios: Sequence[Scenario], stage: str, exc: Exception) -> None:
        """Record ``scenarios`` as failed instead of aborting the campaign.

        Raises :class:`CampaignAbortedError` once this run's quarantine count
        exceeds ``max_failures`` — the blast-radius bound.
        """
        # an error can land mid-group after some of its scenarios were
        # already appended as successes — those stay successes
        scenarios = [s for s in scenarios if s.digest not in self.store]
        for scenario in scenarios:
            prior = self.store.get_failure(scenario.digest)
            attempts = (prior.attempts if prior is not None else 0) + 1
            failure = FailureRecord.from_exception(
                scenario.digest,
                scenario.axes_dict(),
                scenario.seed,
                exc,
                stage=stage,
                attempts=attempts,
                campaign=self.spec.name,
            )
            self.store.append_failure(failure)
            self._failures.append(failure)
        self._emit(
            f"quarantined {len(scenarios)} scenario(s) at stage {stage!r}: "
            f"{type(exc).__name__}: {exc}"
        )
        if self.max_failures is not None and len(self._failures) > self.max_failures:
            raise CampaignAbortedError(
                f"{len(self._failures)} scenarios quarantined, exceeding "
                f"--max-failures={self.max_failures}"
            ) from exc

    # -- shared-work preparation --------------------------------------------
    def _prepare_model(self, model_name: str):
        """Train the named victim once (seeded by spec seed + model only).

        With a :attr:`model_exchange` attached, an already-published
        prepared model is fetched by its training digest instead of being
        retrained — and a fresh training is published for the other shard
        workers (digest-keyed publication, exactly one training per digest
        campaign-wide in the common case).
        """
        from repro.analysis.sweep import dataset_recipe, prepare_experiment

        spec = self.spec
        exchange_key = None
        if self.model_exchange is not None:
            exchange_key = spec.training_digest(model_name)
            prepared = self.model_exchange.get(exchange_key)
            if prepared is not None:
                self._emit(
                    f"[{model_name}] attached published model "
                    f"(digest {exchange_key[:12]})"
                )
                return prepared
        seed = derive_scenario_seed(spec.seed, "train", model_name)
        # learning rate comes from the dataset's registry recipe (explicit
        # ``learning_rate`` entry, else the zoo model's default)
        recipe = dataset_recipe(model_name)
        zoo_model = str(recipe.get("model", model_name))
        training = TrainingConfig(
            epochs=spec.epochs,
            batch_size=min(32, spec.train_size),
            learning_rate=float(
                recipe.get("learning_rate", MODEL_LEARNING_RATES.get(zoo_model, 1e-3))
            ),
        )
        self._emit(
            f"[{model_name}] training victim "
            f"(train={spec.train_size}, epochs={spec.epochs})"
        )
        prepared = prepare_experiment(
            model_name,
            train_size=spec.train_size,
            test_size=spec.test_size,
            width_multiplier=spec.width_multiplier,
            training=training,
            rng=seed,
        )
        self._emit(
            f"[{model_name}] trained: accuracy {prepared.test_accuracy:.3f}, "
            f"{prepared.model.num_parameters()} parameters"
        )
        if self.model_exchange is not None and exchange_key is not None:
            self.model_exchange.put(exchange_key, prepared)
        return prepared

    def _build_package(self, prepared, key: PackageKey, engine: Engine) -> ValidationPackage:
        """One package per (criterion, strategy), always at the max budget."""
        criterion_name, strategy = key
        spec = self.spec
        criterion = resolve_criterion(criterion_name, prepared.model)
        seed = derive_scenario_seed(
            spec.seed, "package", prepared.dataset_name, criterion_name, strategy
        )
        generator = build_generator(
            strategy,
            prepared.model,
            prepared.train,
            criterion=criterion,
            rng=seed,
            engine=engine,
            **_generator_kwargs(spec, strategy),
        )
        vendor = IPVendor(prepared.model, prepared.train, criterion=criterion)
        result = generator.generate(spec.max_budget)
        # the shared per-model engine serves the mask pass too, so package
        # coverage metadata reuses the gradients generation just memoized
        package = vendor.build_package(result, output_atol=spec.output_atol, engine=engine)
        self._emit(
            f"[{prepared.dataset_name}] package {strategy}/{criterion_name}: "
            f"{package.num_tests} tests, coverage "
            f"{float(package.metadata.get('validation_coverage', float('nan'))):.3f}"
        )
        return package

    # -- execution ----------------------------------------------------------
    def run(self, scenarios: Optional[Sequence[Scenario]] = None) -> CampaignSummary:
        """Execute every pending scenario; already-stored ones are skipped.

        ``scenarios`` restricts the call to a subset of the spec's
        cross-product (the distributed runner executes one work unit per
        call); ``None`` runs the full expansion.  The per-model cache
        persists across calls until :meth:`close` (or the context manager).
        """
        start = time.perf_counter()
        spec = self.spec
        if scenarios is None:
            scenarios = spec.expand()
        # quarantined digests are absent from completed_digests, so resume
        # naturally retries them
        pending = [s for s in scenarios if s.digest not in self.store]
        skipped = len(scenarios) - len(pending)
        retrying = sum(1 for s in pending if self.store.get_failure(s.digest))
        if skipped:
            self._emit(f"resuming: {skipped}/{len(scenarios)} scenarios already stored")
        if retrying:
            self._emit(f"retrying {retrying} previously-quarantined scenario(s)")
        self._failures = []
        if not pending:
            return CampaignSummary(
                total=len(scenarios),
                executed=0,
                skipped=skipped,
                wall_s=time.perf_counter() - start,
            )

        records: List[ScenarioRecord] = []
        for model_name in spec.models:
            model_pending = [s for s in pending if s.model == model_name]
            if not model_pending:
                continue
            records.extend(self._run_model(model_name, model_pending))
        return CampaignSummary(
            total=len(scenarios),
            executed=len(records),
            skipped=skipped,
            wall_s=time.perf_counter() - start,
            records=records,
            failures=list(self._failures),
        )

    def _model_context(
        self, model_name: str
    ) -> Tuple[object, Engine, Dict[PackageKey, ValidationPackage]]:
        """The model's cached (prepared, engine, packages) triple, LRU-kept.

        Raises whatever :meth:`_prepare_model` raises on a cache miss — the
        caller quarantines.  Packages are filled in lazily by
        :meth:`_run_model` as scenarios need them.
        """
        cached = self._model_cache.get(model_name)
        if cached is not None:
            self._model_cache.move_to_end(model_name)
            return cached
        prepared = self._prepare_model(model_name)
        # one memoizing engine per model: package generation for every
        # (criterion, strategy) shares its mask/gradient cache
        engine = Engine(prepared.model, spill_dir=self.spill_dir)
        context = (prepared, engine, {})
        self._model_cache[model_name] = context
        while len(self._model_cache) > MODEL_CACHE_SLOTS:
            self._model_cache.popitem(last=False)
        return context

    def _run_model(
        self,
        model_name: str,
        model_pending: Sequence[Scenario],
    ) -> List[ScenarioRecord]:
        spec = self.spec
        try:
            prepared, engine, packages = self._model_context(model_name)
        except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
            self._quarantine(model_pending, "prepare", exc)
            return []

        package_keys: List[PackageKey] = []
        for s in model_pending:
            key = (s.criterion, s.strategy)
            if key not in package_keys:
                package_keys.append(key)
        for key in package_keys:
            if key in packages:
                continue
            try:
                packages[key] = self._build_package(prepared, key, engine)
            except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
                affected = [s for s in model_pending if (s.criterion, s.strategy) == key]
                self._quarantine(affected, "package", exc)
        # drop scenarios whose package failed; the rest of the group runs
        model_pending = [s for s in model_pending if (s.criterion, s.strategy) in packages]
        if not model_pending:
            return []
        # prefix coverage is attack-independent: compute it once per
        # (package, budget) here rather than once per scenario below
        coverages = {key: _prefix_coverages(pkg, spec.budgets) for key, pkg in packages.items()}

        factories = default_attack_factories(
            prepared.test.images[: spec.reference_inputs],
            sba_magnitude=spec.sba_magnitude,
            gda_parameters=spec.gda_parameters,
            random_parameters=spec.random_parameters,
            random_relative_std=spec.random_relative_std,
        )

        # one memo-free trial engine for every attack group: each perturbed
        # copy serves exactly one batch, while the victim's trunk on the
        # stacked tests is computed once and replayed by every group
        trial_engine = Engine(prepared.model, cache=False)
        records: List[ScenarioRecord] = []
        for attack_name in spec.attacks:
            group = [s for s in model_pending if s.attack == attack_name]
            if not group:
                continue
            try:
                records.extend(
                    self._run_attack_group(
                        prepared,
                        attack_name,
                        group,
                        packages,
                        coverages,
                        factories[attack_name],
                        trial_engine,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — quarantine, don't abort
                if isinstance(exc, CampaignAbortedError):
                    raise
                self._quarantine(group, "trials", exc)
        return records

    def _run_attack_group(
        self,
        prepared,
        attack_name: str,
        group: Sequence[Scenario],
        packages: Dict[PackageKey, ValidationPackage],
        coverages: Dict[PackageKey, Dict[int, float]],
        factory,
        engine: Engine,
    ) -> List[ScenarioRecord]:
        """Paired perturbation trials shared by every scenario of one
        (model, attack) coordinate: one stacked replay per trial serves all
        of the group's criteria, strategies and budgets."""
        spec = self.spec
        model_name = prepared.dataset_name
        if inject.active():
            inject.check("campaign.scenario", model=model_name, attack=attack_name)
        needed_keys = []
        for s in group:
            key = (s.criterion, s.strategy)
            if key not in needed_keys:
                needed_keys.append(key)
        stacked = {f"{c}|{g}": packages[(c, g)] for c, g in needed_keys}
        methods, stacked_tests, expected, offsets = stack_package_prefixes(stacked, spec.max_budget)

        # the trial sequence depends only on (spec seed, model, attack), so
        # resumed campaigns replay the exact same perturbations
        trial_seed = derive_scenario_seed(spec.seed, "trials", model_name, attack_name)
        trial_rngs = spawn(trial_seed, spec.trials)
        self._emit(
            f"[{model_name}] {attack_name}: {spec.trials} trials × "
            f"{len(methods)} packages × {len(spec.budgets)} budgets "
            f"({len(group)} scenarios)"
        )

        attacks = (factory(trial_rng) for trial_rng in trial_rngs)
        mismatches, perturbations = replay_trials(
            engine, attacks, stacked_tests, expected, spec.output_atol
        )
        detections: Dict[Tuple[str, int], int] = {}
        queries_to_decision: Dict[Tuple[str, int], int] = {}
        for method in methods:
            lo = offsets[method]
            for budget in spec.budgets:
                window = mismatches[:, lo : lo + budget]
                detections[(method, budget)] = int(window.any(axis=1).sum())
                # sequential-mode simulation: each trial's mismatches in
                # entropy order through the SPRT decision kernel, counting the
                # queries the verdict actually needed
                order = entropy_order(expected[lo : lo + budget])
                queries_to_decision[(method, budget)] = sum(
                    decide_from_mismatches(row)[2] for row in window[:, order]
                )
        mean_modified = float(np.mean([p.num_modified for p in perturbations]))
        mean_max_delta = float(np.mean([p.max_abs_delta for p in perturbations]))

        records: List[ScenarioRecord] = []
        for scenario in group:  # expand() order — keeps append order stable
            method = f"{scenario.criterion}|{scenario.strategy}"
            package = packages[(scenario.criterion, scenario.strategy)]
            record = ScenarioRecord(
                digest=scenario.digest,
                scenario=scenario.axes_dict(),
                seed=scenario.seed,
                trials=spec.trials,
                detections=detections[(method, scenario.budget)],
                coverage=coverages[(scenario.criterion, scenario.strategy)][scenario.budget],
                campaign=spec.name,
                extra={
                    "package_coverage": float(
                        package.metadata.get("validation_coverage", float("nan"))
                    ),
                    "mean_modified_parameters": mean_modified,
                    "mean_max_abs_delta": mean_max_delta,
                    "mean_queries_to_decision": (
                        queries_to_decision[(method, scenario.budget)] / spec.trials
                        if spec.trials
                        else 0.0
                    ),
                },
            )
            self.store.append(record)
            records.append(record)
        return records


def run_campaign(
    spec: CampaignSpec,
    store: Union[ResultStore, str],
    progress: Optional[ProgressCallback] = None,
    max_failures: Optional[int] = None,
    spill_dir: Optional[Union[str, Path]] = None,
    durable: bool = False,
    shards: Optional[int] = None,
) -> CampaignSummary:
    """Convenience wrapper: run ``spec`` into ``store`` (path or instance).

    ``durable`` only applies when ``store`` is a path (an instance keeps its
    own setting).  ``shards`` (default: ``spec.shards``) above 1 delegates
    to :func:`repro.campaign.distributed.run_distributed_campaign`: the
    pending cross-product executes on that many supervised worker
    processes, each appending to its own ``<store>.shard<k>.jsonl`` — run
    ``python -m repro.campaign merge`` afterwards for the combined store.
    """
    effective_shards = int(shards) if shards is not None else spec.shards
    if effective_shards < 1:
        raise ValueError("shards must be at least 1")
    if effective_shards > 1:
        from repro.campaign.distributed import run_distributed_campaign

        store_path = store.path if isinstance(store, ResultStore) else store
        return run_distributed_campaign(
            spec,
            store_path,
            shards=effective_shards,
            progress=progress,
            max_failures=max_failures,
            spill_dir=spill_dir,
            durable=(store.durable if isinstance(store, ResultStore) else durable),
        )
    if not isinstance(store, ResultStore):
        store = ResultStore(store, durable=durable)
    with CampaignRunner(
        spec,
        store,
        progress=progress,
        max_failures=max_failures,
        spill_dir=spill_dir,
    ) as runner:
        return runner.run()


__all__ = ["CampaignRunner", "CampaignSummary", "run_campaign"]
