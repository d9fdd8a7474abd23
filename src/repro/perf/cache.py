"""On-chip memory model.

SimFHE does not simulate cache lines or hit/miss behaviour; it reasons about
which *working sets* fit (Section 4.1 of the paper).  The thresholds mirror
Section 3.1:

* ``O(1)``-limb fusion needs one limb (~1 MB at N = 2^17) plus headroom.
* ``O(beta)``-digit caching needs ``2*beta`` limbs (~6 MB for beta = 3).
* ``O(alpha)``-limb caching needs ``2*alpha + 3`` limbs (~27 MB for
  alpha = 12), and limb re-ordering rides on the same capacity.

**Byte convention.**  Cache sizes here are *decimal* megabytes
(``MB = 10**6``, the unit hardware specs quote), while a limb of an
N = 2^17 ring element occupies ``8 * 2**17 = 2**20`` bytes — one *binary*
mebibyte.  The two differ by ~4.9%, and the paper's shorthand glosses
over it: its "1 MB" limb is really 1.048576 decimal MB, so a literal
``CacheModel.from_mb(1.0)`` holds **zero** whole limbs
(``10**6 // 2**20 == 0``) and a "32 MB" cache holds 30 limbs, not 32.
``capacity_limbs`` floor-divides on purpose — a partial limb cannot be
cached — and every consumer of this model (the analytical thresholds
below and :meth:`repro.memsim.simulator.MemorySimulator.capacity_blocks`,
which uses the *same* floor division) inherits the convention, so
analytical fit decisions and simulated replays always agree on what a
given cache size holds.  Working sets within ~5% of capacity (e.g. 31
limbs against a "32 MB" budget) land on opposite sides of the threshold
depending on which unit is meant; keep quotes of paper cache sizes in
decimal MB and convert explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import state as obs
from repro.params import CkksParams

#: Decimal megabyte — see the byte-convention note in the module docstring.
MB = 10**6


def mb_to_bytes(megabytes: float) -> int:
    """Decimal megabytes to whole bytes, rounding to the nearest byte.

    ``int(megabytes * MB)`` truncates, and binary floats cannot represent
    most decimal-MB values exactly — ``261.095424 * MB`` (exactly 249
    MiB-limbs) evaluates to ``261095423.99999997``, which truncation
    turns into a cache one byte smaller than specified.  One byte is
    enough to flip a ``capacity_limbs`` threshold exactly at a
    working-set boundary (a "261.095424 MB" cache should hold 249
    MiB-limbs, not 248), so every MB → bytes conversion in the model
    rounds instead.
    """
    return int(round(megabytes * MB))


@dataclass(frozen=True)
class CacheModel:
    """An on-chip memory of ``size_bytes`` bytes."""

    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"cache size must be positive, got {self.size_bytes}")

    @classmethod
    def from_mb(cls, megabytes: float) -> "CacheModel":
        """A cache of ``megabytes`` decimal MB (nearest-byte rounding)."""
        return cls(mb_to_bytes(megabytes))

    @property
    def megabytes(self) -> float:
        return self.size_bytes / MB

    def capacity_limbs(self, params: CkksParams) -> int:
        """Whole ciphertext limbs this memory can hold.

        Floor division: a partial limb is not cacheable.  Note the
        decimal-MB vs binary-limb drift documented in the module
        docstring — ``from_mb(1.0)`` holds 0 limbs at N = 2^17.
        """
        return self.size_bytes // params.limb_bytes

    # ------------------------------------------------------------------
    # Optimization applicability (Section 3.1 thresholds)
    # ------------------------------------------------------------------
    @staticmethod
    def _record(name: str, fits: bool) -> bool:
        """Count each fit decision in the metrics registry when enabled."""
        if obs.metrics_enabled():
            obs.count(f"perf.cache.{name}.queries")
            obs.count(f"perf.cache.{name}.{'fit' if fits else 'nofit'}")
        return fits

    def fits_o1(self, params: CkksParams) -> bool:
        """Can fuse all limb-wise sub-operations on one resident limb.

        The paper sizes this optimization at 1 MB — exactly one limb of an
        N = 2^17 ring element.
        """
        return self._record("o1", self.capacity_limbs(params) >= 1)

    def fits_beta(self, params: CkksParams) -> bool:
        """Can keep one limb from each of the ``beta`` raised digits."""
        return self._record(
            "beta", self.capacity_limbs(params) >= 2 * params.dnum
        )

    def fits_alpha(self, params: CkksParams) -> bool:
        """Can keep a full ``alpha``-limb digit resident for basis change.

        The paper quotes ``2*alpha + 3`` limbs (27 MB at alpha = 12) for
        holding both polynomials' digits at once; processing the two
        polynomials sequentially needs only ``alpha + 3`` limbs, which is
        what makes the paper's 32 MB budget sufficient for the optimal
        parameter set's alpha = 21.
        """
        return self._record(
            "alpha", self.capacity_limbs(params) >= params.alpha + 3
        )

    def fits_limb_reorder(self, params: CkksParams) -> bool:
        """Re-ordering needs the same capacity as O(alpha) caching."""
        return self._record("limb_reorder", self.fits_alpha(params))
