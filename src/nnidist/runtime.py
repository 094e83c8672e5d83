"""Per-phase accounting of the paper's CRCW-PRAM schedule.

The parallel algorithms in this package are written as rounds: every task
in a round reads the same pre-round state, and the round's results take
effect together at the barrier.  Python runs each round as a plain loop;
the runtime only records the schedule that loop stands for.  Per phase it
counts rounds (span), tasks summed over rounds (work) and the widest round
(peak parallelism).  These figures describe the PRAM schedule, not what
the interpreter executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Sized


@dataclass
class PhaseMetrics:
    rounds: int = 0
    work: int = 0
    peak_parallelism: int = 0

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "work": self.work,
            "peak_parallelism": self.peak_parallelism,
        }


class ParRuntime:
    """Accumulates per-phase round metrics."""

    def __init__(self) -> None:
        self.metrics: dict[str, PhaseMetrics] = {}

    def round(self, phase: str, outputs: Sized) -> None:
        """Count one round with one task per entry of ``outputs``.

        Empty rounds are free, but still register the phase.
        """
        stats = self.metrics.setdefault(phase, PhaseMetrics())
        width = len(outputs)
        if width:
            stats.rounds += 1
            stats.work += width
            stats.peak_parallelism = max(stats.peak_parallelism, width)

    def add_side_by_side(self, parts: Iterable[ParRuntime]) -> None:
        """Append the schedules of independent computations run at the same time.

        Per phase the block takes as many rounds as its longest part, and its
        work and width are the sums over the parts.
        """
        block: dict[str, PhaseMetrics] = {}
        for part in parts:
            for phase, m in part.metrics.items():
                b = block.setdefault(phase, PhaseMetrics())
                b.rounds = max(b.rounds, m.rounds)
                b.work += m.work
                b.peak_parallelism += m.peak_parallelism
        for phase, b in block.items():
            stats = self.metrics.setdefault(phase, PhaseMetrics())
            stats.rounds += b.rounds
            stats.work += b.work
            stats.peak_parallelism = max(stats.peak_parallelism, b.peak_parallelism)

    def span(self, phase: str) -> int:
        return self.metrics[phase].rounds if phase in self.metrics else 0

    def snapshot(self) -> dict:
        return {phase: m.as_dict() for phase, m in sorted(self.metrics.items())}


def par_prefix_sums(rt: ParRuntime, phase: str, values: Sequence[int]) -> list[int]:
    """Inclusive prefix sums in O(log n) rounds (one task per position)."""
    state = list(values)
    n = len(state)
    step = 1
    while step < n:
        sums = [state[i - step] + state[i] for i in range(step, n)]
        rt.round(phase, sums)
        state[step:] = sums
        step *= 2
    return state
