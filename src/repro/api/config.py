"""Session-level run configuration, plus the shared dataclass (de)serialiser.

A :class:`RunConfig` gathers every knob that describes *how* work executes —
campaign shards, chunking, cache and memory budgets, rng seeding — as
opposed to the request objects (:mod:`repro.api.requests`), which describe
*what* to compute.  One config serves a whole
:class:`~repro.api.session.Session`; every engine the session builds
inherits it.

Like :class:`~repro.campaign.CampaignSpec`, a config is resolvable from a
plain dict or a TOML/JSON file (optionally nested under a ``[run]``
table)::

    config = RunConfig(shards=2, batch_size=128)
    config = RunConfig.from_dict({"batch_size": 128})
    config = RunConfig.load("run.toml")

The dict/file plumbing lives in :class:`TableSerde` (over
:func:`repro.utils.config.load_table_data`, which the campaign spec loader
shares), so the config, every request dataclass and :class:`CampaignSpec`
all load identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, Optional, Union

from repro.utils.config import load_table_data

PathLike = Union[str, Path]


class TableSerde:
    """from_dict / to_dict / load / with_overrides / coerce for the façade
    dataclasses.

    Subclasses set ``_TABLE`` to their TOML table name and define
    ``validate()``; every façade object then resolves from an instance, a
    plain dict, keyword arguments, or a ``.toml``/``.json`` file the same
    way.
    """

    _TABLE = "config"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)  # type: ignore[call-overload]

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def load(cls, path: PathLike):
        """Load from a ``.toml`` or ``.json`` file (optional [_TABLE] table)."""
        instance = cls.from_dict(load_table_data(path, cls._TABLE, kind=cls._TABLE))
        instance.validate()  # type: ignore[attr-defined]
        return instance

    def with_overrides(self, **overrides: object):
        """A copy with some fields replaced."""
        return replace(self, **overrides)  # type: ignore[type-var]

    @classmethod
    def coerce(cls, value, **overrides: object):
        """Resolve from an instance, a dict, a wire envelope, or keyword
        arguments — validated.

        A dict carrying ``schema_version`` is treated as a wire envelope
        (see :mod:`repro.api.wire`) when the class mixes in
        :class:`~repro.api.wire.WireSerde`; the HTTP layer and the
        in-process path therefore share one deserialization contract.
        """
        if value is None:
            instance = cls(**overrides)  # type: ignore[arg-type]
        elif isinstance(value, cls):
            instance = value.with_overrides(**overrides) if overrides else value
        elif isinstance(value, dict):
            if "schema_version" in value and hasattr(cls, "from_wire"):
                instance = cls.from_wire(value)  # type: ignore[attr-defined]
                if overrides:
                    instance = instance.with_overrides(**overrides)
                instance.validate()  # type: ignore[attr-defined]
                return instance
            merged = dict(value)
            merged.update(overrides)
            instance = cls.from_dict(merged)
        else:
            raise TypeError(
                f"cannot build a {cls.__name__} from {type(value).__name__}"
            )
        instance.validate()  # type: ignore[attr-defined]
        return instance


@dataclass(frozen=True)
class RunConfig(TableSerde):
    """How a :class:`~repro.api.session.Session` executes its requests.

    Attributes
    ----------
    shards:
        Default worker-process shard count for campaign sweeps (``None`` =
        follow the spec; above 1 routes :meth:`Session.sweep` through the
        distributed runner, one ``<store>.shard<k>.jsonl`` per shard).
    batch_size:
        Engine chunk size for large pools.
    memory_budget_bytes:
        Optional cap on the transient dense buffers of streaming packed-mask
        queries (the engine-level default of
        :attr:`repro.engine.Engine.memory_budget_bytes`).  With
        ``spill_dir`` set it also caps the in-RAM window of memory-mapped
        mask iteration.
    spill_dir:
        Optional directory where packed-mask matrices are spilled to disk as
        memory-mapped stores (:class:`repro.coverage.MmapMaskMatrix`)
        instead of being materialised in RAM; greedy selection then
        iterates mmap windows under ``memory_budget_bytes``.
    engine_cache_size:
        LRU capacity of the session's engine pool, keyed on each model's
        exact parameter bytes (:func:`repro.engine.cache.exact_model_key`).
    prepared_cache_size:
        LRU capacity of the session's trained-experiment cache.
    seed:
        Base seed mixed into every request-level seed derivation.
    discover_plugins:
        Run :func:`repro.registry.discover_entry_points` when the session is
        created, loading third-party registrations from installed packages.
    faults:
        Retry/backoff/breaker policy of the remote transport only: a plain
        table of :class:`repro.faults.FaultPolicy` fields (e.g.
        ``{"max_retries": 3, "breaker_threshold": 5}``) handed to the
        :class:`repro.online.RemoteModel` that
        :meth:`~repro.api.session.Session.validate` builds for a request
        with a ``remote_url`` or ``transport``.  ``None`` leaves that
        transport on the ``FaultPolicy()`` defaults (2 retries).  In-process
        engine calls are never retried, and campaign shard supervision and
        spill-store healing are separate mechanisms that do not read it.
        Resolved via :meth:`fault_policy`.
    """

    _TABLE = "run"

    shards: Optional[int] = None
    batch_size: int = 64
    memory_budget_bytes: Optional[int] = None
    spill_dir: Optional[str] = None
    engine_cache_size: int = 8
    prepared_cache_size: int = 4
    seed: int = 0
    discover_plugins: bool = False
    faults: Optional[Dict[str, object]] = None

    def fault_policy(self):
        """The resolved :class:`repro.faults.FaultPolicy`, or ``None``."""
        if self.faults is None:
            return None
        # imported lazily: repro.faults is dependency-free, but keeping the
        # config module import-light preserves the façade's startup cost
        from repro.faults import FaultPolicy

        return FaultPolicy.from_dict(dict(self.faults))

    def validate(self) -> None:
        if self.faults is not None:
            self.fault_policy()  # raises on unknown fields / bad values
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1 when given")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive when given")
        if self.engine_cache_size <= 0:
            raise ValueError("engine_cache_size must be positive")
        if self.prepared_cache_size <= 0:
            raise ValueError("prepared_cache_size must be positive")


__all__ = ["RunConfig", "TableSerde", "load_table_data"]
