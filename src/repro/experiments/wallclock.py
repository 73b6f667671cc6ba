"""Bitwise equality of sweep aggregates.

Serial and parallel sweeps, and cold and warm result-cache replays,
must produce the same aggregates bit for bit; :func:`points_equal` is
the one comparison the tests and the benchmark's output checks use.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import SweepPoint

__all__ = ["points_equal"]


def points_equal(a: Sequence[SweepPoint], b: Sequence[SweepPoint]) -> bool:
    """Exact (bitwise) equality of two sweeps' aggregates."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if (pa.app_name, pa.size, pa.num_machines) != (
            pb.app_name,
            pb.size,
            pb.num_machines,
        ):
            return False
        if set(pa.outcomes) != set(pb.outcomes):
            return False
        for name, oa in pa.outcomes.items():
            ob = pb.outcomes[name]
            if (
                oa.makespans != ob.makespans
                or oa.idle_fractions != ob.idle_fractions
                or oa.distributions != ob.distributions
                or oa.overheads != ob.overheads
                or oa.rebalances != ob.rebalances
            ):
                return False
    return True
