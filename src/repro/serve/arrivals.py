"""Seeded arrival processes: the serving simulator's only entropy source.

Every random draw the serving simulator makes happens in this module,
from generators seeded with a *string* key (``"{seed}:{scenario}:
{tenant}"``): :class:`random.Random` hashes string seeds with SHA-512,
so the streams are bit-identical across processes, platforms and
``PYTHONHASHSEED`` values.  Everything downstream of these functions is
a pure function of the returned lists, so RNG use anywhere else in
``serve/`` is a bug: ``tests/test_determinism.py`` runs ``serve mixed``
under four hash seeds and requires identical reports.

Three arrival shapes, per the serving literature's usual suspects:

* ``poisson`` — memoryless: exponential inter-arrival gaps at ``rate_per_s``.
* ``bursty``  — hyperexponential: with probability ``burst_fraction`` a
  gap is drawn at ``rate_per_s * burst_factor`` (a burst), otherwise at
  ``rate_per_s / burst_factor`` (a lull); heavier tail than Poisson at
  the same nominal rate.
* ``diurnal`` — inhomogeneous Poisson by Lewis thinning: candidates at
  the peak rate ``rate_per_s * (1 + amplitude)``, accepted with
  probability proportional to ``1 + amplitude * sin(2*pi*t/period_s)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["ArrivalProcess", "arrival_times", "tenant_arrivals"]

#: Recognised arrival-process shapes.
ARRIVAL_SHAPES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class ArrivalProcess:
    """One tenant's request-arrival law."""

    shape: str = "poisson"
    rate_per_s: float = 10.0
    burst_factor: float = 4.0  # bursty: rate multiplier inside a burst
    burst_fraction: float = 0.2  # bursty: probability a gap is burst-drawn
    period_s: float = 60.0  # diurnal: one "day" of the sinusoid
    amplitude: float = 0.8  # diurnal: peak-to-mean modulation, in [0, 1)

    def __post_init__(self) -> None:
        if self.shape not in ARRIVAL_SHAPES:
            raise ValueError(
                f"unknown arrival shape {self.shape!r}; "
                f"choose from {', '.join(ARRIVAL_SHAPES)}"
            )
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if not 0 <= self.burst_fraction <= 1:
            raise ValueError("burst_fraction must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")


def _stream(seed_key: str) -> random.Random:
    """A deterministic generator for one named stream."""
    return random.Random(seed_key)


def arrival_times(
    process: ArrivalProcess, duration_s: float, seed_key: str
) -> List[float]:
    """Sorted arrival times in ``[0, duration_s)`` for one stream."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = _stream(seed_key)
    times: List[float] = []
    now = 0.0
    if process.shape == "poisson":
        while True:
            now += rng.expovariate(process.rate_per_s)
            if now >= duration_s:
                break
            times.append(now)
    elif process.shape == "bursty":
        hot = process.rate_per_s * process.burst_factor
        cold = process.rate_per_s / process.burst_factor
        while True:
            rate = hot if rng.random() < process.burst_fraction else cold
            now += rng.expovariate(rate)
            if now >= duration_s:
                break
            times.append(now)
    else:  # diurnal: Lewis thinning against the sinusoidal intensity
        peak = process.rate_per_s * (1 + process.amplitude)
        while True:
            now += rng.expovariate(peak)
            if now >= duration_s:
                break
            intensity = 1 + process.amplitude * math.sin(
                2 * math.pi * now / process.period_s
            )
            if rng.random() * (1 + process.amplitude) < intensity:
                times.append(now)
    return times


def tenant_arrivals(
    process: ArrivalProcess,
    mix: Sequence[Tuple[str, float]],
    duration_s: float,
    seed_key: str,
) -> List[Tuple[float, str]]:
    """``(arrival_time, workload_kind)`` pairs for one tenant's stream.

    Kinds are drawn from the weighted ``mix`` with an independent
    generator (``seed_key + ":mix"``) so changing the mix never perturbs
    the arrival times themselves — ablations over tenant mixes keep the
    same traffic shape.
    """
    if not mix:
        raise ValueError("tenant mix must name at least one workload kind")
    total_weight = float(sum(weight for _, weight in mix))
    if total_weight <= 0:
        raise ValueError("tenant mix weights must sum to a positive value")
    times = arrival_times(process, duration_s, seed_key)
    rng = _stream(seed_key + ":mix")
    arrivals: List[Tuple[float, str]] = []
    for when in times:
        draw = rng.random() * total_weight
        cumulative = 0.0
        chosen = mix[-1][0]
        for kind, weight in mix:
            cumulative += weight
            if draw < cumulative:
                chosen = kind
                break
        arrivals.append((when, chosen))
    return arrivals
