"""Execution-mode configuration: one resolution path for every knob.

Every execution dimension of the package — kernel sanitizer,
global-memory bounds checking, backend selection, the default simulated
device and planner routing — resolves through this module.  The
precedence order, highest first:

1. **explicit keyword** at a call site (``sat(img, sanitize=True)``);
2. **per-call config** object (``sat(img, config=ExecutionConfig(...))``);
3. **context manager / installed default** (``with execution(sanitize=True):``,
   innermost context first, then :func:`set_default_config`);
4. **environment**: the per-field ``REPRO_GPUSIM_*`` / ``REPRO_EXEC_*``
   variables, then the named profile selected by ``REPRO_EXEC_PROFILE``;
5. built-in defaults (sanitizer off, bounds checking off, ``gpusim``
   backend, ``P100`` device, autotuning off).

``None`` always means "unset — inherit from the next layer down", so a
config object may pin one field and leave the rest floating.

Tracing (``REPRO_TRACE``, :mod:`repro.obs`) is deliberately *not* an
execution field: it resolves through the same precedence shape
(``trace=`` kwarg > ``tracing()`` context > env) but never participates
in mode resolution, plan-cache keys or kernel arguments — enabling it
cannot change what executes.

Environment variables (lowest-precedence layer, kept from the earlier
env-var-only plumbing):

===================  ==========================  =======================
field                variable                    default
===================  ==========================  =======================
``sanitize``         ``REPRO_GPUSIM_SANITIZE``   off
``bounds_check``     ``REPRO_GPUSIM_BOUNDS_CHECK``  off
``backend``          ``REPRO_EXEC_BACKEND``      ``gpusim``
``device``           ``REPRO_EXEC_DEVICE``       ``P100``
``autotune``         ``REPRO_PLAN_AUTOTUNE``     off
(profile)            ``REPRO_EXEC_PROFILE``      — (see :data:`PROFILES`)
===================  ==========================  =======================

Boolean variables accept ``"0"``, ``"false"``, ``"no"``, ``"off"`` and
``""`` (case-insensitive, surrounding whitespace ignored) as false;
anything else is true.

Every ``REPRO_*`` variable the package reads, these and the tracing,
sharding, plan-cache and planner ones, is read through :func:`env` when
it is needed, so a change to the environment applies from the next call.
:func:`resolve_execution` memoises its result on its inputs and the raw
values it read, so a warm resolution costs six lookups and one dict hit.

This module deliberately imports nothing from the rest of the package so
that every layer — including :mod:`repro.gpusim` — can depend on it
without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "ExecutionConfig",
    "PROFILES",
    "ENV_VARS",
    "PROFILE_ENV",
    "RESOLVE_MEMO_SIZE",
    "env",
    "env_flag",
    "execution",
    "get_default_config",
    "set_default_config",
    "resolve_execution",
    "requested_backend",
]

_FALSY = {"0", "false", "no", "off", ""}

# CPython's ``os.environ`` keeps its variables in a dict under encoded
# keys.  Looking a variable up there costs an unset one a dict miss,
# where ``os.environ.get`` raises and catches a ``KeyError`` inside the
# mapping.  Encoded names are kept per name read (a fixed set).
_environ = getattr(os.environ, "_data", None)
_encoded: Dict[str, object] = {}


def env(name: str) -> Optional[str]:
    """The value of environment variable ``name``, ``None`` when unset.

    The one reader of the environment in the package: nothing caches
    what it returns, so a change applies from the next read.
    """
    if _environ is None:
        return os.environ.get(name)
    key = _encoded.get(name)
    if key is None:
        key = _encoded[name] = os.environ.encodekey(name)
    raw = _environ.get(key)
    return None if raw is None else os.environ.decodevalue(raw)


def env_flag(name: str, default: bool) -> bool:
    """Read a boolean flag from the environment.

    ``"0"``, ``"false"``, ``"no"``, ``"off"`` and ``""`` (case-insensitive,
    whitespace-stripped) disable; anything else enables; an unset variable
    yields ``default``.
    """
    raw = env(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


@dataclass(frozen=True)
class ExecutionConfig:
    """One bundle of execution-mode knobs; ``None`` fields are unset.

    Frozen so configs can key caches and be shared freely; derive variants
    with :meth:`with_fields` (or ``dataclasses.replace``).
    """

    #: Full kernel sanitizer (:mod:`repro.gpusim.sanitize`).
    sanitize: Optional[bool] = None
    #: Global-memory bounds checking debug mode.
    bounds_check: Optional[bool] = None
    #: Execution backend name from the :mod:`repro.exec.registry`:
    #: ``"gpusim"``, the simulator, or ``"host"``, pure NumPy pass
    #: semantics.  ``"compiled"`` is accepted as an alias and stored as
    #: ``"gpusim"``.
    backend: Optional[str] = None
    #: Default simulated device name (any :data:`repro.gpusim.device.
    #: DEVICES` entry — ``"P100"``, ``"V100"``, ``"A100"``...).
    device: Optional[str] = None
    #: Route calls with no explicit algorithm through the model-driven
    #: :class:`~repro.plan.Planner` (``algorithm="auto"``).  Off by
    #: default; the ``autotuned`` profile turns it on.
    autotune: Optional[bool] = None

    def __post_init__(self):
        if self.backend == "compiled":
            object.__setattr__(self, "backend", "gpusim")

    def with_fields(self, **changes) -> "ExecutionConfig":
        """A copy with ``changes`` applied (``None`` clears a field)."""
        return replace(self, **changes)

    def merged_over(self, other: "ExecutionConfig") -> "ExecutionConfig":
        """Layer ``self`` over ``other``: set fields of ``self`` win."""
        return ExecutionConfig(*[
            mine if mine is not None else theirs
            for mine, theirs in zip(_values(self), _values(other))
        ])

    @property
    def is_fully_resolved(self) -> bool:
        return None not in _values(self)

    def compat_key(self) -> Tuple[Tuple[str, object], ...]:
        """Hashable compatibility key for request coalescing.

        Two requests may share a batched launch only if every resolved
        execution field matches — mixing, say, a sanitized request into an
        unsanitized batch would silently drop its instrumentation.  The key is
        the sorted ``(field, value)`` tuple of a **fully resolved** config
        (resolve first with :func:`resolve_execution`, which also folds in
        the submitting thread's ambient contexts and environment);
        requiring resolution makes two *equivalent spellings* of the same
        modes — env var vs. profile vs. kwarg — coalesce into one batch.
        Unresolved configs raise ``ValueError``: ``None`` means "inherit",
        and what is inherited can differ between submitter and worker
        threads.
        """
        if not self.is_fully_resolved:
            unset = [f.name for f in fields(self)
                     if getattr(self, f.name) is None]
            raise ValueError(
                f"compat_key requires a fully resolved config; unset fields: "
                f"{unset} (pass the result of resolve_execution())"
            )
        # ``autotune`` is deliberately excluded: it selects *which*
        # concrete configuration runs, and callers fold the planner's
        # decision (algorithm, opts) into the key before
        # coalescing — so an autotuned request batches with an explicit
        # request that spells the same decision by hand.
        return tuple(sorted(
            (f.name, getattr(self, f.name)) for f in fields(self)
            if f.name != "autotune"
        ))


#: Named execution profiles, selectable with ``REPRO_EXEC_PROFILE=<name>``
#: (or ``resolve_execution("<name>")``).  CI runs the test suite once per
#: profile instead of hand-wiring raw env vars per job.
PROFILES: Dict[str, ExecutionConfig] = {
    "default": ExecutionConfig(),
    "sanitized": ExecutionConfig(sanitize=True),
    "autotuned": ExecutionConfig(autotune=True),
}

#: Per-field environment variables (the lowest-precedence explicit layer).
ENV_VARS: Dict[str, str] = {
    "sanitize": "REPRO_GPUSIM_SANITIZE",
    "bounds_check": "REPRO_GPUSIM_BOUNDS_CHECK",
    "backend": "REPRO_EXEC_BACKEND",
    "device": "REPRO_EXEC_DEVICE",
    "autotune": "REPRO_PLAN_AUTOTUNE",
}

#: The variable naming a :data:`PROFILES` entry (below the per-field ones).
PROFILE_ENV = "REPRO_EXEC_PROFILE"

_BOOL_FIELDS = ("sanitize", "bounds_check", "autotune")

#: Field names in declaration order, and a getter of their values.
_NAMES = tuple(f.name for f in fields(ExecutionConfig))
_values = attrgetter(*_NAMES)

#: What :func:`resolve_execution` reads, per field, then the profile.
_RESOLVE_ENV = tuple(ENV_VARS[name] for name in _NAMES) + (PROFILE_ENV,)

#: Entries :func:`resolve_execution`'s memo holds before it starts over.
RESOLVE_MEMO_SIZE = 256
_resolved: Dict[tuple, ExecutionConfig] = {}

#: Built-in defaults — the behaviour with nothing configured anywhere.
_BUILTIN = ExecutionConfig(
    sanitize=False, bounds_check=False, backend="gpusim", device="P100",
    autotune=False,
)

ConfigLike = Union["ExecutionConfig", Mapping, str, None]

#: Innermost-last stack of :func:`execution` context configs plus the
#: installed process default at the bottom.
_context_stack: ContextVar[Tuple[ExecutionConfig, ...]] = ContextVar(
    "repro_exec_context_stack", default=()
)
_default_config = ExecutionConfig()


def _coerce(config: ConfigLike, fields_: Optional[dict] = None) -> ExecutionConfig:
    """Accept an ExecutionConfig, a mapping, or a profile name."""
    if config is None:
        cfg = ExecutionConfig()
    elif isinstance(config, ExecutionConfig):
        cfg = config
    elif isinstance(config, str):
        try:
            cfg = PROFILES[config]
        except KeyError:
            raise ValueError(
                f"unknown execution profile {config!r}; available: "
                f"{sorted(PROFILES)}"
            ) from None
    elif isinstance(config, Mapping):
        cfg = ExecutionConfig(**config)
    else:
        raise TypeError(
            f"config must be an ExecutionConfig, mapping or profile name, "
            f"got {type(config).__name__}"
        )
    if fields_:
        cfg = ExecutionConfig(**fields_).merged_over(cfg)
    return cfg


def get_default_config() -> ExecutionConfig:
    """The installed process-wide default config (possibly all-unset)."""
    return _default_config


def set_default_config(config: ConfigLike = None, **fields_) -> ExecutionConfig:
    """Install the process-wide default config; returns the previous one."""
    global _default_config
    previous = _default_config
    _default_config = _coerce(config, fields_)
    return previous


@contextmanager
def execution(config: ConfigLike = None, **fields_) -> Iterator[ExecutionConfig]:
    """Scope an :class:`ExecutionConfig` over a ``with`` block.

    >>> with execution(sanitize=True):
    ...     run = sat(img)          # doctest: +SKIP

    Contexts nest; the innermost set field wins.  Accepts the same
    spellings as ``config=`` call parameters: an :class:`ExecutionConfig`,
    a mapping, or a profile name from :data:`PROFILES`.
    """
    cfg = _coerce(config, fields_)
    token = _context_stack.set(_context_stack.get() + (cfg,))
    try:
        yield cfg
    finally:
        _context_stack.reset(token)


def _env_value(field: str, raw: Optional[str]):
    """Field ``field``'s value from its variable's raw value ``raw``."""
    if raw is None:
        return None
    if field in _BOOL_FIELDS:
        return raw.strip().lower() not in _FALSY
    return raw.strip() or None


def _profile_config(name: Optional[str]) -> Optional[ExecutionConfig]:
    """The profile a raw ``REPRO_EXEC_PROFILE`` value names, if any."""
    if name is None or not name.strip():
        return None
    try:
        return PROFILES[name.strip()]
    except KeyError:
        raise ValueError(
            f"unknown {PROFILE_ENV} {name.strip()!r}; available: "
            f"{sorted(PROFILES)}"
        ) from None


def requested_backend(config: ConfigLike = None,
                      backend: Optional[str] = None) -> Optional[str]:
    """The backend explicitly requested *at the call site*, or ``None``.

    Only the ``backend=`` keyword and the per-call ``config`` count as
    explicit; contexts, the installed default, environment variables and
    profiles are floating preferences.  Callers that cannot honour a
    backend (spec-less baseline algorithms) reject explicit requests but
    quietly ignore floating ones — an ambient ``host`` backend must not
    make the CPU baselines unusable.  Like every spelling, ``compiled``
    comes back as ``gpusim``.
    """
    return _coerce(config, {"backend": backend}).backend


def resolve_execution(config: ConfigLike = None, **overrides) -> ExecutionConfig:
    """Resolve every field to a concrete value through the layer stack.

    ``overrides`` are the explicit call-site keywords (highest precedence;
    ``None`` means "not given"), ``config`` is the per-call config object
    (or mapping / profile name).  Below those sit the :func:`execution`
    contexts (innermost first), the :func:`set_default_config` default,
    the per-field environment variables, the ``REPRO_EXEC_PROFILE``
    profile, and finally the built-in defaults — so the returned config
    has no ``None`` fields.

    The result is memoised on the hashable inputs (``config``, the
    overrides, the context stack and the default) plus the raw values of
    the variables read, which are read on every call; a call with an
    unhashable input, such as a mapping ``config``, resolves afresh.
    """
    raw = tuple(map(env, _RESOLVE_ENV))
    stack = _context_stack.get()
    memo = (config, tuple(overrides.items()), stack, _default_config, raw)
    try:
        hit = _resolved.get(memo)
    except TypeError:
        memo = hit = None
    if hit is not None:
        return hit
    unknown = set(overrides) - set(_NAMES)
    if unknown:
        raise TypeError(f"unknown execution fields: {sorted(unknown)}")
    layers = [ExecutionConfig(**{k: v for k, v in overrides.items() if v is not None})]
    if config is not None:
        layers.append(_coerce(config))
    layers.extend(reversed(stack))
    layers.append(_default_config)

    out = {}
    profile = _sentinel = object()
    for f, var_raw in zip(_NAMES, raw):
        value = None
        for layer in layers:
            value = getattr(layer, f)
            if value is not None:
                break
        if value is None:
            value = _env_value(f, var_raw)
        if value is None:
            if profile is _sentinel:
                profile = _profile_config(raw[-1])
            if profile is not None:
                value = getattr(profile, f)
        if value is None:
            value = getattr(_BUILTIN, f)
        out[f] = value
    resolved = ExecutionConfig(**out)
    if memo is not None:
        if len(_resolved) >= RESOLVE_MEMO_SIZE:
            _resolved.clear()
        _resolved[memo] = resolved
    return resolved
