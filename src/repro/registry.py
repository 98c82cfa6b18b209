"""Cross-subsystem plugin registry: one discoverable surface for every
pluggable component.

Before this module, each subsystem resolved its extensible pieces with a
private idiom: test-generation strategies had their own registry module,
backends had :func:`repro.engine.backend.register_backend`, attacks and
coverage criteria were hardcoded in ``repro.validation.detection`` and
``repro.coverage.activation``, datasets and models were ``if``/``elif``
ladders.  This module unifies them into a single :class:`Registry` with
*namespaces*:

=============  ============================================================
``strategies``  test-generation strategies (``combined``, ``selection``,
                ``gradient``, ``neuron``, ``random``)
``attacks``     parameter-perturbation attack families (``sba``, ``gda``,
                ``random``, ``bitflip``)
``criteria``    activation-criterion resolvers (``default``, ``exact``,
                ``eps``)
``backends``    execution backends (``numpy``, ``parallel``)
``datasets``    dataset loaders (``mnist``, ``cifar``, ``digits``,
                ``noise``, ``imagenet``)
``models``      model-zoo builders (``mnist``, ``cifar``, ``small_cnn``, …)
``transports``  remote-model query transports for online verification
                (``callable``, ``http``)
=============  ============================================================

Each entry carries an optional **knob declaration** — a mapping from the
factory's keyword arguments onto the configuration fields that feed them
(e.g. the ``gda`` attack declares ``{"num_parameters": "gda_parameters"}``)
— so declarative drivers (:mod:`repro.campaign`, :class:`repro.api.Session`)
learn a component's tunables from the registry instead of hardcoding them
per name.

Builtin entries are registered lazily: looking up a namespace imports the
module(s) that own its builtin components, so ``import repro.registry``
itself stays free of numpy-heavy imports.

Extending::

    from repro.registry import register

    @register("attacks", "row-hammer", knobs={"rows": "hammer_rows"})
    def build_row_hammer(reference_inputs, rng=None, rows=1):
        return RowHammerAttack(rows=rows, rng=rng)

Third-party packages can also expose a ``repro.plugins`` entry point whose
target is a callable receiving the registry; call
:func:`discover_entry_points` (or pass ``discover_plugins=True`` to
:class:`repro.api.RunConfig`) to load them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: the builtin namespaces, in documentation order
NAMESPACES = (
    "strategies",
    "attacks",
    "criteria",
    "backends",
    "datasets",
    "models",
    "transports",
)

#: entry-point group scanned by :func:`discover_entry_points`
ENTRY_POINT_GROUP = "repro.plugins"

#: singular forms used in "unknown <thing>" error messages
_SINGULAR = {
    "strategies": "strategy",
    "attacks": "attack",
    "criteria": "criterion",
    "backends": "backend",
    "datasets": "dataset",
    "models": "model",
    "transports": "transport",
}

#: modules that register a namespace's builtin entries on import
_BUILTIN_MODULES: Dict[str, Tuple[str, ...]] = {
    "strategies": ("repro.testgen.strategies",),
    "attacks": ("repro.attacks",),
    "criteria": ("repro.coverage.activation",),
    "backends": ("repro.engine",),
    "datasets": ("repro.data",),
    "models": ("repro.models.zoo",),
    "transports": ("repro.online.transport",),
}


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: a named factory plus its declarations.

    ``knobs`` maps the factory's *keyword arguments* onto the declarative
    configuration fields that feed them (``{"max_updates":
    "gradient_updates"}``); ``metadata`` is free-form extra information
    consumed by specific drivers (e.g. the dataset entries' experiment
    recipe: which model to train, default epochs) and is never interpreted
    as factory arguments.
    """

    namespace: str
    name: str
    factory: Callable[..., object]
    knobs: Mapping[str, object] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)
    summary: str = ""

    def describe(self) -> Dict[str, object]:
        """JSON-friendly description (the ``python -m repro registry`` row)."""
        return {
            "namespace": self.namespace,
            "name": self.name,
            "factory": getattr(self.factory, "__qualname__", repr(self.factory)),
            "knobs": dict(self.knobs),
            "metadata": dict(self.metadata),
            "summary": self.summary,
        }


class Registry:
    """Namespaced name → factory registry with lazy builtin loading.

    All mutating and reading methods are thread-safe.  Lookups
    (:meth:`entry`, :meth:`names`, …) trigger the import of the namespace's
    builtin modules on first access; :meth:`register` never does, so the
    builtin modules themselves can register during import without recursion.
    """

    def __init__(self, namespaces: Tuple[str, ...] = NAMESPACES) -> None:
        self._entries: Dict[str, Dict[str, RegistryEntry]] = {
            ns: {} for ns in namespaces
        }
        self._loaded: set = set()
        #: namespace -> thread ident of the thread importing its builtins
        self._loading: Dict[str, int] = {}
        #: entry-point groups whose hooks have run successfully
        self._discovered: set = set()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

    # -- namespace management -----------------------------------------------
    def namespaces(self) -> List[str]:
        """Every known namespace (builtin and third-party added)."""
        with self._lock:
            return list(self._entries)

    def add_namespace(self, namespace: str) -> None:
        """Declare a new (third-party) namespace; a no-op when it exists."""
        with self._lock:
            self._entries.setdefault(namespace, {})

    def _check_namespace(self, namespace: str) -> None:
        if namespace not in self._entries:
            raise ValueError(
                f"unknown registry namespace {namespace!r}; "
                f"choose from {self.namespaces()} "
                "(or declare it with add_namespace)"
            )

    def _ensure(self, namespace: str) -> None:
        """Import the namespace's builtin modules once, on first lookup.

        A failed import is *not* latched: the ImportError propagates to the
        caller and the next lookup retries, instead of every later lookup
        reporting a misleading empty namespace.  Concurrent first lookups
        from other threads block until the importing thread finishes;
        re-entrant lookups from the importing thread itself (a builtin
        module resolving names mid-import) fall through to the entries
        registered so far.
        """
        self._check_namespace(namespace)
        me = threading.get_ident()
        with self._cond:
            while namespace in self._loading and self._loading[namespace] != me:
                self._cond.wait()
            if namespace in self._loaded or self._loading.get(namespace) == me:
                return
            self._loading[namespace] = me
        try:
            import importlib

            for module in _BUILTIN_MODULES.get(namespace, ()):
                importlib.import_module(module)
        except BaseException:
            with self._cond:
                del self._loading[namespace]
                self._cond.notify_all()
            raise
        with self._cond:
            del self._loading[namespace]
            self._loaded.add(namespace)
            self._cond.notify_all()

    # -- registration --------------------------------------------------------
    def register(
        self,
        namespace: str,
        name: str,
        factory: Optional[Callable[..., object]] = None,
        *,
        knobs: Optional[Mapping[str, object]] = None,
        metadata: Optional[Mapping[str, object]] = None,
        summary: str = "",
    ):
        """Register ``factory`` under ``namespace``/``name``.

        Usable directly or as a decorator::

            register("models", "tiny", build_tiny)

            @register("models", "tiny")
            def build_tiny(**kwargs): ...

        Re-registering a name replaces the previous entry (latest wins),
        mirroring the behaviour of the per-subsystem registries it absorbs.
        ``knobs`` maps the factory's keyword arguments onto the declarative
        configuration fields that feed them; ``metadata`` carries free-form
        driver-specific information (see :class:`RegistryEntry`).
        """
        self._check_namespace(namespace)

        def _register(fn: Callable[..., object]) -> Callable[..., object]:
            entry = RegistryEntry(
                namespace=namespace,
                name=name,
                factory=fn,
                knobs=dict(knobs or {}),
                metadata=dict(metadata or {}),
                summary=summary,
            )
            with self._lock:
                self._entries[namespace][name] = entry
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, namespace: str, name: str) -> None:
        """Remove an entry (raises ``ValueError`` when absent)."""
        self._check_namespace(namespace)
        with self._lock:
            if name not in self._entries[namespace]:
                raise ValueError(f"no {namespace!r} entry named {name!r}")
            del self._entries[namespace][name]

    # -- lookup --------------------------------------------------------------
    def entry(self, namespace: str, name: str) -> RegistryEntry:
        """The full entry for ``namespace``/``name`` (raises on unknown)."""
        self._ensure(namespace)
        with self._lock:
            try:
                return self._entries[namespace][name]
            except KeyError as exc:
                raise ValueError(
                    f"unknown {_SINGULAR.get(namespace, namespace + ' entry')} "
                    f"{name!r}; choose from {self.names(namespace)}"
                ) from exc

    def get(self, namespace: str, name: str) -> Callable[..., object]:
        """The registered factory for ``namespace``/``name``."""
        return self.entry(namespace, name).factory

    def create(self, namespace: str, name: str, *args: object, **kwargs: object):
        """Call the registered factory: ``get(namespace, name)(*args, **kwargs)``."""
        return self.get(namespace, name)(*args, **kwargs)

    def names(self, namespace: str) -> List[str]:
        """Sorted names registered under ``namespace``."""
        self._ensure(namespace)
        with self._lock:
            return sorted(self._entries[namespace])

    def knobs(self, namespace: str, name: str) -> Dict[str, object]:
        """The entry's ``{factory kwarg: config field}`` knob declaration."""
        return dict(self.entry(namespace, name).knobs)

    def metadata(self, namespace: str, name: str) -> Dict[str, object]:
        """The entry's free-form driver metadata (e.g. a dataset recipe)."""
        return dict(self.entry(namespace, name).metadata)

    def entries(self, namespace: str) -> List[RegistryEntry]:
        """Every entry of ``namespace``, sorted by name."""
        self._ensure(namespace)
        with self._lock:
            return [self._entries[namespace][n] for n in sorted(self._entries[namespace])]

    def describe(self) -> Dict[str, List[Dict[str, object]]]:
        """Full registry listing, namespace → entry descriptions."""
        return {ns: [e.describe() for e in self.entries(ns)] for ns in self.namespaces()}

    # -- entry-point discovery ----------------------------------------------
    def discover_entry_points(self, group: str = ENTRY_POINT_GROUP) -> int:
        """Load third-party registrations from installed packages.

        Scans ``importlib.metadata`` entry points of ``group``; each target
        must be a callable accepting this registry and performing its own
        :meth:`register` calls.  Returns the number of hooks invoked.
        Repeated calls for the same group are no-ops — but like the builtin
        namespace imports, a *failed* scan is not latched: the exception
        propagates and the next call retries the group.
        """
        with self._lock:
            if group in self._discovered:
                return 0
        try:
            from importlib.metadata import entry_points
        except ImportError:  # pragma: no cover - py<3.8 only
            return 0
        try:
            points = entry_points(group=group)
        except TypeError:  # pragma: no cover - py<3.10 select API
            points = entry_points().get(group, [])  # type: ignore[call-arg]
        count = 0
        for point in points:
            hook = point.load()
            hook(self)
            count += 1
        with self._lock:
            self._discovered.add(group)
        return count


#: the process-wide registry every subsystem registers into
registry = Registry()


# -- module-level conveniences (bound to the global registry) ----------------
def register(
    namespace: str,
    name: str,
    factory: Optional[Callable[..., object]] = None,
    *,
    knobs: Optional[Mapping[str, object]] = None,
    metadata: Optional[Mapping[str, object]] = None,
    summary: str = "",
):
    """Register into the global :data:`registry` (decorator-capable)."""
    return registry.register(
        namespace, name, factory, knobs=knobs, metadata=metadata, summary=summary
    )


def unregister(namespace: str, name: str) -> None:
    """Remove an entry from the global :data:`registry`."""
    registry.unregister(namespace, name)


def get(namespace: str, name: str) -> Callable[..., object]:
    """Factory lookup on the global :data:`registry`."""
    return registry.get(namespace, name)


def create(namespace: str, name: str, *args: object, **kwargs: object):
    """Build a component through the global :data:`registry`."""
    return registry.create(namespace, name, *args, **kwargs)


def names(namespace: str) -> List[str]:
    """Sorted entry names of a namespace of the global :data:`registry`."""
    return registry.names(namespace)


def knobs(namespace: str, name: str) -> Dict[str, object]:
    """Knob declaration lookup on the global :data:`registry`."""
    return registry.knobs(namespace, name)


def metadata(namespace: str, name: str) -> Dict[str, object]:
    """Driver-metadata lookup on the global :data:`registry`."""
    return registry.metadata(namespace, name)


def entry(namespace: str, name: str) -> RegistryEntry:
    """Entry lookup on the global :data:`registry`."""
    return registry.entry(namespace, name)


def discover_entry_points(group: str = ENTRY_POINT_GROUP) -> int:
    """Run third-party registration hooks against the global registry."""
    return registry.discover_entry_points(group)


__all__ = [
    "ENTRY_POINT_GROUP",
    "NAMESPACES",
    "Registry",
    "RegistryEntry",
    "create",
    "discover_entry_points",
    "entry",
    "get",
    "knobs",
    "metadata",
    "names",
    "register",
    "registry",
    "unregister",
]
