"""Exact integer arithmetic for the palette objects behind the colouring.

The construction needs three things for a given max degree D >= MIN_DEGREE
and radius r >= MIN_RADIUS, both 2:

* ``step`` -- the small colour increment ceil(D**(r - 4/3) * ln(D)**2).  The
  value is bracketed between exact rational bounds (an integer cube root for
  D**(2/3), the correctly rounded ``decimal`` logarithm for ln D) whose
  precision doubles until both bounds have the same ceiling,
* ``modulus`` -- the least multiple of ``step`` clearing D**(r-1) + 6*D + step;
  colour properness is enforced modulo this value,
* ``edge_palette`` -- D + 1 integers just above the modulus, stored as a few
  blocks of consecutive integers, whose four-element shifted sets are
  pairwise disjoint modulo the modulus.  The check works on the blocks, so
  its cost does not grow with D.

PaletteParams also carries the headline bound, the real-valued palette size
the construction targets.  A run whose max degree or radius is below the
floor uses the palette at MIN_DEGREE or MIN_RADIUS; the other modules read
the floor from here.

Only the standard library is used and every value is a plain Python
integer, so there is neither overflow nor a precision limit: any D and r
get an exact answer, a refusal past MAX_INTERVALS edge-palette blocks, or,
where the headline bound is past the float range, a refusal before any
exact power.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context
from typing import NamedTuple


class PaletteError(ValueError):
    """Invalid palette parameters."""


# The least max degree and radius the palette arithmetic is defined for.
MIN_DEGREE = MIN_RADIUS = 2

# Edge-palette blocks allowed: r = 2 needs about D**(1/3) / ln(D)**2, r >= 3 one.
MAX_INTERVALS = 10 ** 5


def _icbrt(n):
    """floor(n ** (1/3)) for an integer n >= 0, by Newton's method from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _step_value(max_degree, radius):
    """ceil(max_degree**(radius - 4/3) * ln(max_degree)**2), exactly.

    The value is D**(r-2) * D**(2/3) * ln(D)**2 with D = max_degree.  At
    `digits` decimal digits, c = icbrt(D**2 * 10**(3*digits)) gives
    c <= D**(2/3) * 10**digits < c + 1, and the two neighbours of the
    correctly rounded ``Decimal.ln`` bracket ln D, so the products are exact
    lower and upper bounds of the value.  When their ceilings agree that is
    the answer; otherwise the digits double.

    The loop ends because the value is never an integer: an integer n would
    make ln D = sqrt(n / D**(r - 4/3)) algebraic, but ln D is transcendental
    for every integer D >= 2 (Lindemann-Weierstrass).  So the bounds, which
    close in on the value, eventually leave no integer between them.
    """
    scale = max_degree ** (radius - 2)
    # first try: the decimal digits of D**(r-1), from its bit length
    # (log10(2) ~ 0.30103), plus four guard digits
    digits = (radius - 1) * max_degree.bit_length() * 30103 // 100000 + 4
    while True:
        unit = 10 ** digits
        root = _icbrt(max_degree ** 2 * unit ** 3)
        ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
        ln = ctx.ln(max_degree)
        lo_num, lo_den = ln.next_minus(ctx).as_integer_ratio()
        hi_num, hi_den = ln.next_plus(ctx).as_integer_ratio()
        low = -(-(scale * root * lo_num ** 2) // (unit * lo_den ** 2))
        high = -(-(scale * (root + 1) * hi_num ** 2) // (unit * hi_den ** 2))
        if low == high:
            return low
        digits *= 2


class PaletteParams(NamedTuple):
    """Palette parameters for one (max_degree, radius) pair.

    ``intervals`` stores the edge palette as inclusive (lo, hi) ranges so the
    object stays small even for astronomical degrees; ``elements`` yields it
    in ascending order on demand, and edge colour index j takes its j-th
    element.  ``headline_bound`` is headline_bound(max_degree, radius), None
    in hand-built params.
    """

    max_degree: int
    radius: int
    step: int
    modulus: int
    intervals: tuple
    palette_max: int
    headline_bound: float = None

    @property
    def size(self):
        """Number of edge-palette elements (always max_degree + 1)."""
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def elements(self):
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)


def compute_params(max_degree, radius):
    """Build the palette parameters for a max degree >= MIN_DEGREE and radius
    >= MIN_RADIUS; PaletteError outside that domain or past the float range
    (both checked first, by headline_bound) or past MAX_INTERVALS
    edge-palette blocks."""
    headline = headline_bound(max_degree, radius)
    step = _step_value(max_degree, radius)
    bound = max_degree ** (radius - 1) + 6 * max_degree + step
    modulus = -(-bound // step) * step
    # Interval layout: blocks of `step` consecutive integers starting right
    # above the modulus, with gaps of 3*step between blocks; the final block
    # is truncated so the total count is exactly max_degree + 1.  The last
    # block ends at modulus + count + 3*(nblocks - 1)*step, and
    # (nblocks - 1)*step <= max_degree, so the palette stays in
    # [modulus + 1, modulus + 4*max_degree + 1].
    count = max_degree + 1
    nblocks = -(-count // step)
    if nblocks > MAX_INTERVALS:
        raise PaletteError(f"edge palette needs {nblocks} intervals, over {MAX_INTERVALS}")
    intervals = []
    for block in range(1, nblocks):
        lo = modulus + (block - 1) * 4 * step + 1
        intervals.append((lo, lo + step - 1))
    lo = modulus + (nblocks - 1) * 4 * step + 1
    intervals.append((lo, lo + count - (nblocks - 1) * step - 1))
    palette_max = 2 * modulus + step + 4 * max_degree + 1
    return PaletteParams(max_degree, radius, step, modulus,
                         tuple(intervals), palette_max, headline)


def shifted_set(value, step):
    """The four shifts {value - step, value, value + step, value + 2*step}."""
    return (value - step, value, value + step, value + 2 * step)


def check_disjoint_shifts(params):
    """Verify pairwise disjointness mod `modulus` of all shifted 4-sets.

    Returns (True, None) or (False, (value1, value2)): two distinct palette
    elements whose shifted sets share a residue, the smaller one first.

    Works on the blocks, not the elements.  Under each distinct shift
    j*step mod modulus (j = -1..2) a block [lo, hi] covers one interval of
    residues, or two where it wraps past modulus - 1 (a block of modulus or
    more elements wraps onto itself, so its two pieces overlap).  The blocks
    are disjoint (as compute_params builds them), so two shifted sets meet
    exactly where two of these pieces overlap: the pieces are sorted and
    each is compared with the one before, in O(B log B) for B blocks.  The
    witness is the pair of elements at the smallest residue two pieces
    share.
    """
    step, modulus = params.step, params.modulus
    shifts = {j * step % modulus for j in (-1, 0, 1, 2)}
    pieces = []  # (first residue, last residue, element at the first residue)
    for lo, hi in params.intervals:
        for shift in shifts:
            start = (lo + shift) % modulus
            end = start + hi - lo
            if end < modulus:
                pieces.append((start, end, lo))
            else:
                pieces.append((start, modulus - 1, lo))
                pieces.append((0, end - modulus, lo + modulus - start))
    pieces.sort()
    for (start, end, value), (nstart, _, nvalue) in zip(pieces, pieces[1:]):
        if nstart <= end:
            return False, tuple(sorted((value + nstart - start, nvalue)))
    return True, None


def headline_bound(max_degree, radius):
    """Real-valued palette bound the construction targets asymptotically:
    2*D^(r-1) + 5*D^(r-4/3)*ln(D)^2 + 16*D + 6; PaletteError outside
    D >= MIN_DEGREE, r >= MIN_RADIUS or past the float range."""
    if max_degree < MIN_DEGREE:
        raise PaletteError(f"max_degree must be >= {MIN_DEGREE}, got {max_degree}")
    if radius < MIN_RADIUS:
        raise PaletteError(f"radius must be >= {MIN_RADIUS}, got {radius}")
    try:
        if (max_degree.bit_length() - 1) * (radius - 1) >= 1024:
            raise OverflowError     # D^(r-1) >= 2^1024: no exact power needed
        value = (2.0 * max_degree ** (radius - 1)
                 + 5.0 * max_degree ** (radius - 4.0 / 3.0) * math.log(max_degree) ** 2
                 + 16.0 * max_degree + 6.0)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise PaletteError(f"headline bound overflows a float at r={radius}")
    return value

