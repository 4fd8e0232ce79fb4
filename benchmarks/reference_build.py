"""Historical reference for the Section-5 initial-state build.

:func:`~repro.sim.scenario.build_scenario_state` draws its thinning victims
with :meth:`~repro.network.failures.ThinningToEnabledCount.draw_victims` and
marks them failed on the fresh arrays, so the
:class:`~repro.network.state.WsnState` constructor indexes and elects heads
over the survivors only.  :func:`reference_state` is the algorithm that
replaced: index and elect over the whole deployment, then one
:meth:`~repro.network.state.WsnState.disable_node` call per victim of the
same ``rng.sample`` draw.  :func:`per_victim_build` installs it wherever the
package calls ``build_scenario_state``, so a benchmark can time both builds
in the same run and check that they produce byte-identical states.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.network.failures import ThinningToEnabledCount
from repro.network.state import WsnState
from repro.sim.rng import derive_rng
from repro.sim.scenario import ScenarioConfig, build_scenario_state

_BUILD = build_scenario_state


def reference_state(config: ScenarioConfig) -> WsnState:
    """Build ``config``'s initial state by indexing everything, then disabling per victim."""
    if config.initial_energy is not None:
        # Batteries are installed after thinning; the reference would have
        # to repeat that step, and no benchmarked scenario installs them.
        raise ValueError("the reference build covers scenarios without initial_energy")
    state = _BUILD(dataclasses.replace(config, spare_surplus=None))
    if config.target_enabled is not None:
        thinning = ThinningToEnabledCount(target_enabled=config.target_enabled)
        victims = thinning.draw_victims(
            state.enabled_node_ids(), derive_rng(config.seed, "thinning")
        )
        for node_id in victims:
            state.disable_node(node_id, reason=thinning.reason)
    return state


@contextmanager
def per_victim_build() -> Iterator[None]:
    """Run the enclosed builds with :func:`reference_state`."""
    patched = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        and getattr(module, "build_scenario_state", None) is _BUILD
    ]
    for module in patched:
        module.build_scenario_state = reference_state
    try:
        yield
    finally:
        for module in patched:
            module.build_scenario_state = _BUILD
