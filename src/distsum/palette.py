"""Exact integer arithmetic for the palette objects behind the colouring.

The construction needs three things for a given max degree and radius:

* ``step`` -- the small colour increment (ceil of a transcendental expression,
  evaluated in high precision so the ceiling is provably on the right side),
* ``modulus`` -- the least multiple of ``step`` clearing the main lower bound;
  colour properness is enforced modulo this value,
* ``edge_palette`` -- max_degree + 1 integers just above the modulus whose
  four-element shifted sets are pairwise disjoint modulo the modulus.

All values are plain Python integers, so there is no overflow to guard
against; the high-precision concern is only the ceiling of the step.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf


class PaletteError(ValueError):
    """Invalid palette parameters."""


def _step_value(max_degree, radius):
    """ceil(max_degree**(radius - 4/3) * ln(max_degree)**2), exactly.

    Evaluated at two precisions; a disagreement between the ceilings would
    mean the value sits closer to an integer than 10**-40, in which case we
    refuse rather than guess.
    """
    results = []
    for dps in (50, 120):
        with mp.workdps(dps):
            expo = mpf(radius) - mpf(4) / 3
            val = mpf(max_degree) ** expo * mp.log(max_degree) ** 2
            results.append(int(mp.ceil(val)))
    if results[0] != results[1]:
        raise PaletteError(
            f"step ceiling is precision-sensitive for max_degree={max_degree}, "
            f"radius={radius}: {results}")
    return results[0]


@dataclass(frozen=True)
class PaletteParams:
    """Palette parameters for one (max_degree, radius) pair.

    ``intervals`` stores the edge palette as inclusive (lo, hi) ranges so the
    object stays small even for astronomical degrees; ``elements`` and
    ``element`` materialize it on demand.
    """

    max_degree: int
    radius: int
    step: int
    modulus: int
    intervals: tuple
    palette_max: int

    @property
    def size(self):
        """Number of edge-palette elements (always max_degree + 1)."""
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def elements(self):
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def element(self, j):
        """The j-th smallest edge-palette element, 1-indexed."""
        if j < 1:
            raise PaletteError(f"palette index must be >= 1, got {j}")
        left = j - 1
        for lo, hi in self.intervals:
            width = hi - lo + 1
            if left < width:
                return lo + left
            left -= width
        raise PaletteError(f"palette index {j} exceeds size {self.size}")


def compute_params(max_degree, radius):
    """Build the palette parameters for a max degree >= 2 and radius >= 2."""
    if max_degree < 2:
        raise PaletteError(f"max_degree must be >= 2, got {max_degree}")
    if radius < 2:
        raise PaletteError(f"radius must be >= 2, got {radius}")
    step = _step_value(max_degree, radius)
    bound = max_degree ** (radius - 1) + 6 * max_degree + step
    modulus = -(-bound // step) * step
    # Interval layout: blocks of `step` consecutive integers starting right
    # above the modulus, with gaps of 3*step between blocks; the final block
    # is truncated so the total count is exactly max_degree + 1.
    count = max_degree + 1
    nblocks = -(-count // step)
    intervals = []
    for block in range(1, nblocks):
        lo = modulus + (block - 1) * 4 * step + 1
        intervals.append((lo, lo + step - 1))
    lo = modulus + (nblocks - 1) * 4 * step + 1
    intervals.append((lo, lo + count - (nblocks - 1) * step - 1))
    palette_max = 2 * modulus + step + 4 * max_degree + 1
    params = PaletteParams(max_degree, radius, step, modulus,
                           tuple(intervals), palette_max)
    if params.size != count:
        raise PaletteError("internal error: edge palette has wrong size")
    if intervals[-1][1] > modulus + 4 * max_degree + 1:
        raise PaletteError("internal error: edge palette leaves its window")
    return params


def shifted_set(value, step):
    """The four shifts {value - step, value, value + step, value + 2*step}."""
    return (value - step, value, value + step, value + 2 * step)


def check_disjoint_shifts(params):
    """Verify pairwise disjointness mod `modulus` of all shifted 4-sets.

    Returns (True, None) or (False, (value1, value2)) with the first
    offending pair of palette elements.  Linear in the palette size.
    """
    owner = {}
    for value in params.elements():
        for shifted in shifted_set(value, params.step):
            res = shifted % params.modulus
            prev = owner.get(res)
            if prev is not None and prev != value:
                return False, (prev, value)
            owner[res] = value
    return True, None


def headline_bound(max_degree, radius):
    """Real-valued palette bound the construction targets asymptotically:
    2*D^(r-1) + 5*D^(r-4/3)*ln(D)^2 + 16*D + 6."""
    import math
    return (2.0 * max_degree ** (radius - 1)
            + 5.0 * max_degree ** (radius - 4.0 / 3.0) * math.log(max_degree) ** 2
            + 16.0 * max_degree + 6.0)

