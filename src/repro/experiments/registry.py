"""Scheme registry: one place that maps scheme names to controller factories.

Historically the sweep runner hard-coded its scheme list in a module-level
``SCHEME_FACTORIES`` dict, which meant extensions (new baselines, ablation
variants) had to edit ``sweep.py`` to become sweepable.  This module replaces
that dict with a small registry:

* :func:`register_scheme` adds a factory under a name (extensions call this
  at import time, exactly like the built-in schemes below);
* :func:`get_scheme` resolves a name to its factory;
* :func:`available_schemes` lists everything currently registered;
* :func:`make_controller` instantiates a controller for a concrete network.

The registry is what makes :class:`~repro.experiments.orchestration.RunSpec`
picklable: a spec carries only the scheme *name*, and the worker process
resolves it through its own copy of the registry, so controller objects never
cross process boundaries.
"""

from __future__ import annotations

import hashlib
import types
from typing import Callable, Dict, Tuple

from repro.baselines.smart_scan import SmartScanController
from repro.baselines.virtual_force import VirtualForceController
from repro.core.baseline_ar import LocalizedReplacementController
from repro.core.hamilton import build_hamilton_cycle
from repro.core.protocol import MobilityController
from repro.core.shortcut import ShortcutReplacementController
from repro.core.replacement import HamiltonReplacementController
from repro.network.state import WsnState

#: A factory takes the network state and returns a fresh controller bound to
#: its grid.  Broker pool workers are forked, so they inherit every
#: registration made before the pool starts; any callable works.
SchemeFactory = Callable[[WsnState], MobilityController]

#: The registry itself.  ``repro.experiments.sweep.SCHEME_FACTORIES`` aliases
#: this dict for backwards compatibility; mutate it only through the
#: functions below.
SCHEME_REGISTRY: Dict[str, SchemeFactory] = {}


def register_scheme(name: str, factory: SchemeFactory, *, replace: bool = False) -> None:
    """Register ``factory`` under ``name`` so sweeps and the CLI can run it.

    Raises :class:`ValueError` if the name is already taken, unless
    ``replace=True`` (useful for tests and for shadowing a built-in with a
    tuned variant).
    """
    if not name:
        raise ValueError("scheme name must be non-empty")
    if name in SCHEME_REGISTRY and not replace:
        raise ValueError(
            f"scheme {name!r} is already registered; pass replace=True to override"
        )
    SCHEME_REGISTRY[name] = factory


def unregister_scheme(name: str) -> None:
    """Remove a scheme from the registry (raises KeyError if absent)."""
    if name not in SCHEME_REGISTRY:
        raise KeyError(f"unknown scheme {name!r}; available: {list(available_schemes())}")
    del SCHEME_REGISTRY[name]


def get_scheme(name: str) -> SchemeFactory:
    """Resolve a scheme name to its controller factory."""
    try:
        return SCHEME_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {list(available_schemes())}"
        ) from None


def available_schemes() -> Tuple[str, ...]:
    """All registered scheme names, sorted."""
    return tuple(sorted(SCHEME_REGISTRY))


def make_controller(scheme: str, state: WsnState) -> MobilityController:
    """Instantiate a controller by scheme name for the given network."""
    return get_scheme(scheme)(state)


# ----------------------------------------------------------------- built-ins
def _sr_factory(state: WsnState) -> MobilityController:
    return HamiltonReplacementController(build_hamilton_cycle(state.grid))


def _sr_shortcut_factory(state: WsnState) -> MobilityController:
    return ShortcutReplacementController(build_hamilton_cycle(state.grid))


def _ar_factory(state: WsnState) -> MobilityController:
    return LocalizedReplacementController(state.grid)


def _sr_energy_factory(state: WsnState) -> MobilityController:
    """SR with the energy-aware (fullest battery first) spare selection."""
    return HamiltonReplacementController(
        build_hamilton_cycle(state.grid), spare_selection="max_energy"
    )


def _ar_energy_factory(state: WsnState) -> MobilityController:
    """AR with the energy-aware (fullest battery first) spare selection."""
    return LocalizedReplacementController(state.grid, spare_selection="max_energy")


def _vf_factory(state: WsnState) -> MobilityController:
    return VirtualForceController()


def _smart_factory(state: WsnState) -> MobilityController:
    return SmartScanController()


register_scheme("SR", _sr_factory)
register_scheme("SR-shortcut", _sr_shortcut_factory)
register_scheme("SR-energy", _sr_energy_factory)
register_scheme("AR", _ar_factory)
register_scheme("AR-energy", _ar_energy_factory)
register_scheme("VF", _vf_factory)
register_scheme("SMART", _smart_factory)

#: Snapshot of the registrations every process gets at import time.  The
#: cache uses factory identity to avoid serving records simulated by a
#: factory that has since been shadowed.
BUILTIN_FACTORIES: Dict[str, SchemeFactory] = dict(SCHEME_REGISTRY)


def factory_identity(name: str) -> str:
    """Stable identity of a scheme's factory, folded into cache keys.

    Shadowing a scheme via ``register_scheme(..., replace=True)`` changes the
    identity, so cached records simulated by the previous factory become
    misses instead of being served as the new scheme's results.  Because two
    different lambdas share one ``__qualname__``, the identity also covers a
    hash of the function's compiled code (bytecode, names, constants);
    factories that differ only in closed-over *values* still collide — use
    distinct named factories for variants that matter.
    """
    factory = get_scheme(name)
    identity = f"{factory.__module__}.{factory.__qualname__}"
    code = getattr(factory, "__code__", None)
    if code is not None:
        fingerprint = repr(_code_fingerprint(code))
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]
        identity += f":{digest}"
    return identity


def _code_fingerprint(code: types.CodeType) -> tuple:
    """Deterministic, address-free summary of a code object (and nested ones)."""
    consts = tuple(
        _code_fingerprint(const) if isinstance(const, types.CodeType) else repr(const)
        for const in code.co_consts
    )
    return (code.co_code, code.co_names, consts)
