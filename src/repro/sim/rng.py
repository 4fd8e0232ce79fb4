"""Seeded random-number helpers.

Every stochastic component of the simulator (deployment, failure injection,
controller tie-breaking, movement targets) takes an explicit
:class:`random.Random` so that experiments are reproducible from a single
scenario seed.  The helpers here derive independent streams from that seed in
a stable, documented way.
"""

from __future__ import annotations

import hashlib
import random
from typing import List


def derive_rng(seed: int, label: str) -> random.Random:
    """A :class:`random.Random` derived deterministically from ``(seed, label)``.

    Using a label (e.g. ``"deployment"`` or ``"controller"``) keeps the
    streams of the different simulation stages independent: changing how many
    random numbers one stage consumes does not perturb the others.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int(digest[:8].hex(), 16))


def spawn_seeds(seed: int, count: int, label: str = "trial") -> List[int]:
    """Derive ``count`` independent trial seeds from a master seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = derive_rng(seed, f"spawn:{label}")
    return [rng.randrange(2**63) for _ in range(count)]
