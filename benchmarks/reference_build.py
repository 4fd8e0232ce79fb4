"""Per-victim reference for the Section-5 initial-state build.

The build thins the deployment to ``N + m*n`` enabled nodes with
:class:`~repro.network.failures.ThinningToEnabledCount`, which disables its
victims in one :meth:`~repro.network.state.WsnState.disable_nodes` batch.
:func:`per_victim_thinning` swaps in the pre-batching algorithm — the same
``rng.sample`` draw, then one :meth:`~repro.network.state.WsnState.disable_node`
call per victim — so a benchmark can time both builds in the same run and
check that they produce byte-identical states.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.network.failures import ThinningToEnabledCount


def _thin_one_by_one(self: ThinningToEnabledCount, state, rng) -> List[int]:
    """:meth:`ThinningToEnabledCount.apply` with one disable call per victim."""
    enabled_ids = state.enabled_node_ids()
    excess = len(enabled_ids) - self.target_enabled
    if excess <= 0:
        return []
    victims = rng.sample(enabled_ids, excess)
    for node_id in victims:
        state.disable_node(node_id, reason=self.reason)
    return victims


@contextmanager
def per_victim_thinning() -> Iterator[None]:
    """Run the enclosed builds with the per-victim thinning reference."""
    batched = ThinningToEnabledCount.apply
    ThinningToEnabledCount.apply = _thin_one_by_one
    try:
        yield
    finally:
        ThinningToEnabledCount.apply = batched
