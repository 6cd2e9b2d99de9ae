"""Sequential recolouring that makes weighted degrees distinct on every pair
of vertices within the requested radius.

Vertices are processed in the certified ordering.  Each step first fixes,
once, the one shift each incident edge may take on a two-unit lattice: the
modulus for an edge from a small vertex to an unprocessed big one, the step
for the other unprocessed edges, and for a backward edge the shift its
processed endpoint can absorb.  That shift decides both the edge's place on
the lattice and the residues the edge can still reach.  The step then picks
a fresh base colour for the vertex whose residues avoid its processed
neighbours and those reachable residues, and reaches a target weighted
degree by shifting incident edges.  Shifting a backward edge is paid for by
the opposite shift on its already-processed endpoint, which keeps that
endpoint's fixed sum, so nothing settled is ever disturbed.  A processed u
only ever holds its anchor a or a + unit, the unit being the modulus for a
big u and the step for a small one: its two-colour envelope.  So the run
keeps one signed shift per processed vertex, the one its next backward edge
takes: -unit at the vertex's own step, negated at each compensation, so it
is +unit just when u sits at a + unit and u's colour less max(shift, 0) is
a.  The base colouring colours the edges only: each vertex takes its colour
at its own step, which reads the colours of processed vertices only.

Counting argument.  The candidate sums for v are base + (sum of its edge
colours) + i * modulus + j * step, over the admissible bases in
[1, modulus] and the lattice offsets (i, j).  Every processed r-neighbour
holds a single target sum and so rules out at most one candidate: the step
succeeds whenever the distinct candidates outnumber the processed
r-neighbours.  Offset (0, 0) alone gives one distinct sum per admissible
base and the other offsets add more; under the certified ordering the
paper's analysis puts the options (admissible bases times lattice offsets)
above the backward r-neighbour count.  Each step record keeps those three
counts; the backward count is the number of processed r-neighbours, the bit
count of v's r-ball ANDed with the processed vertices.  The options overcount
the distinct sums, since different bases and offsets can give one sum, so
the margin read off the records is an upper bound.  A candidate sum w is
taken when its owners, the bitmask of processed vertices holding w, meet
v's r-ball.  A step that still finds no free sum raises RunError rather than
lift a base colour past the modulus.

The run keeps its records flat: a StepLog holds each step's scalars and its
runs of edge shifts and compensations as plain ints, and builds a StepRecord
only when read; the base edge colours are one tuple in g.edges order.  Only a
checked run keys base colours by edge, counts each edge's shifts and keeps
each processed vertex's anchor and target sum.

Each step tries the lattice offsets nearest first, by L1 distance |i| + |j|
then shift: ring by ring, each sorted on its own, out from ring 0, (0, 0).
The steps with the same four group sizes (edges by signed shift) share one
list of rings, which starts as ring 0.  A walk tests the list's offsets in
order and, on finding the last one built taken, appends the next ring, so
the list grows while it is walked until the lattice is whole.  The rings
kept hold the offsets the steps read plus the rest of the ring each walk
stopped in.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .base_colouring import base_total_colouring
from .colouring import TotalColouring
from .graphs import all_r_neighbourhoods, degree_stats, edge_key
from .ordering import failing_vertices, resample_until_valid
from .palette import MIN_DEGREE, MIN_RADIUS, compute_params, shifted_set


class StepRecord(NamedTuple):
    vertex: int
    base_colour: int                # vertex colour set at this step
    target_sum: int
    edge_deltas: list               # [((u, v), delta), ...], nonzero only
    compensations: list             # [(vertex, delta), ...]
    admissible_count: int
    lattice_size: int
    backward_r_count: int           # processed r-neighbours of vertex


class StepLog:
    """The steps of a run, held flat: six `scalars` per step (the StepRecord
    fields but the two lists), each shifted edge as u, v, delta in `edges`,
    each compensation as u, delta in `comps`, and where each step's runs end
    in `edge_ends` and `comp_ends`.  Indexing and iteration build
    StepRecords.  Plain lists: colours pass 2**63 at large r."""

    __slots__ = ("scalars", "edges", "edge_ends", "comps", "comp_ends")

    def __init__(self):
        self.scalars, self.edges, self.edge_ends, self.comps, self.comp_ends = [], [], [], [], []

    def __len__(self):
        return len(self.edge_ends)

    def __getitem__(self, i):
        i = range(len(self))[i]         # from the end if negative; IndexError past it
        e, c = self.edges, self.comps
        e0, c0 = (self.edge_ends[i - 1], self.comp_ends[i - 1]) if i else (0, 0)
        v, base, target, admissible, lattice, backward = self.scalars[6 * i:6 * i + 6]
        return StepRecord(
            v, base, target,
            [((e[k], e[k + 1]), e[k + 2]) for k in range(e0, self.edge_ends[i], 3)],
            [(c[k], c[k + 1]) for k in range(c0, self.comp_ends[i], 2)],
            admissible, lattice, backward)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        return type(other) is StepLog and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


class RunTrace(NamedTuple):
    steps: StepLog
    invariant_violations: list
    base_edge_colours: tuple        # each edge's base colour, in g.edges order
    notes: list
    fallback_count = 0              # not a field: no step falls back (`fallbacks` fields)


class RunError(RuntimeError):
    """A recolouring step found no free target sum; the run is refused."""


class _Run:
    def __init__(self, g, params, balls, check_invariants=False):
        self.g = g
        self.params = params
        self.step, self.modulus = params.step, params.modulus
        self.check_invariants = check_invariants
        self.stats = degree_stats(g)
        self.balls = balls          # all_r_neighbourhoods(g, radius), built by run

        self.colouring = base_total_colouring(g, params)
        self.vcol, self.ecol = self.colouring.vertex_colours, self.colouring.edge_colours
        # every run holds a processed u as vcol[u] and shift[u]; checked runs only:
        # edge -> base colour and -> shifts so far, u -> anchor and -> target sum
        self.base_edge = dict(self.ecol) if check_invariants else None
        self.alterations = defaultdict(int) if check_invariants else None
        self.anchor, self.target = ({}, {}) if check_invariants else (None, None)
        self.owners = {}            # target sum -> bitmask of its processed holders
        self.shift = {}             # processed u -> shift of its next backward edge
        self.processed_mask = 0     # the processed vertices as a bitmask
        self.rings = {}             # four group sizes -> the rings built, end to end
        # the base colours in g.edges order, the order the base colouring keys them
        self.trace = RunTrace(StepLog(), [], tuple(self.ecol.values()), [])

    def _incident_edges(self, v):
        """One pass over v's edges, in ascending neighbour order, fixing each
        edge's admitted shift once.

        Returns the edges as {shift: [(key, u), ...]} over the four shifts
        +-modulus and +-step, the residues a base colour of v must avoid, and
        v's edge sum.
        """
        step, modulus = self.step, self.modulus
        big_set = self.stats.big_set
        v_big = v in big_set
        vcol, ecol, shift_of = self.vcol, self.ecol, self.shift
        # v's colour ends up at base or base + step modulo the modulus, so a
        # base b is forbidden when b or b + step meets a processed neighbour's
        # {anchor, anchor + step} or a residue an incident edge can reach.
        forbidden = set()
        groups = {modulus: [], -modulus: [], step: [], -step: []}
        edge_sum = 0
        for u in self.g.adjacency[v]:
            key = (v, u) if v < u else (u, v)
            colour = ecol[key]
            edge_sum += colour
            if u in shift_of:
                shift = shift_of[u]
                a = vcol[u] - shift if shift > 0 else vcol[u]     # u's anchor
                forbidden.update(((a - step) % modulus, a % modulus,
                                  (a + step) % modulus))
            elif not v_big and u in big_set:
                shift = modulus
            else:
                shift = step
            groups[shift].append((key, u))
            rho = colour % modulus
            if v_big:
                # the edge reaches rho and rho + shift
                reach = (rho + shift) % modulus
                forbidden.update((rho, (rho - step) % modulus,
                                  reach, (reach - step) % modulus))
            else:
                # conservative: the edge may reach its whole four-shift class
                # rho + j * step, j = -1..2, so with the step below each,
                # j = -2..2 is forbidden
                forbidden.update((rho, (rho - 2 * step) % modulus,
                                  (rho - step) % modulus, (rho + step) % modulus,
                                  (rho + 2 * step) % modulus))
        return groups, forbidden, edge_sum

    def _grow(self, sizes, offsets):
        """Append to offsets, the lattice rings built so far, the next ring
        out, sorted; append nothing once the lattice is whole.  Ring d is the
        offsets (i * modulus + j * step, i, j) with |i| + |j| = d and (i, j)
        in [-big_neg, big_pos] x [-small_neg, small_pos]."""
        modulus, step = self.modulus, self.step
        big_neg, big_pos, small_neg, small_pos = sizes
        # offsets ends with a whole ring, so the next ring is one further out
        d = abs(offsets[-1][1]) + abs(offsets[-1][2]) + 1
        if d > max(big_neg, big_pos) + max(small_neg, small_pos):
            return
        ring = []
        for i in range(max(-big_neg, -d), min(big_pos, d) + 1):
            j = d - abs(i)
            if j <= small_pos:
                ring.append((i * modulus + j * step, i, j))
            if 0 < j <= small_neg:
                ring.append((i * modulus - j * step, i, -j))
        ring.sort()
        offsets += ring

    # -- one step ------------------------------------------------------

    def process_vertex(self, v):
        g, step, modulus = self.g, self.step, self.modulus

        groups, forbidden, edge_sum = self._incident_edges(v)
        sizes = (len(groups[-modulus]), len(groups[modulus]),
                 len(groups[-step]), len(groups[step]))
        lattice_size = (sizes[0] + sizes[1] + 1) * (sizes[2] + sizes[3] + 1)
        ball = self.balls[v]
        backward_r_count = (self.processed_mask & ball).bit_count()
        admissible_count = modulus - len(forbidden)

        # nearest first: the walk reads the rings built so far and grows the
        # next one each time it reaches the last offset built
        offsets = self.rings.setdefault(sizes, [(0, 0, 0)])
        last = offsets[-1]
        holders = self.owners.get
        for base in range(1, modulus + 1):
            if base % modulus in forbidden:
                continue
            w0 = base + edge_sum
            for offset in offsets:
                if not holders(w0 + offset[0], 0) & ball:
                    break
                if offset is last:
                    self._grow(sizes, offsets)
                    last = offsets[-1]
            else:
                continue                # every offset's sum is taken
            break
        else:
            raise RunError(
                f"vertex {v}: no free target sum among {admissible_count} "
                f"admissible bases x {lattice_size} lattice offsets, "
                f"{backward_r_count} processed r-neighbours")

        shift, need_big, need_small = offset
        target = w0 + shift
        log = self.trace.steps
        edges, comps = log.edges, log.comps
        for count, unit in ((need_big, modulus), (need_small, step)):
            delta = unit if count >= 0 else -unit
            for key, u in groups[delta][:abs(count)]:
                self.ecol[key] += delta
                edges += (*key, delta)
                if u in self.shift:
                    self.vcol[u] -= delta
                    self.shift[u] = -delta
                    comps += (u, -delta)

        self.vcol[v] = base
        self.owners[target] = holders(target, 0) | 1 << v
        self.shift[v] = -modulus if v in self.stats.big_set else -step
        self.processed_mask |= 1 << v

        log.scalars += (v, base, target, admissible_count, lattice_size, backward_r_count)
        log.edge_ends.append(len(edges))
        log.comp_ends.append(len(comps))
        if self.check_invariants:
            self.anchor[v], self.target[v] = base, target
            for key, _ in log[-1].edge_deltas:
                self.alterations[key] += 1
            self._check_state(v, {v, *g.adjacency[v]})

    # -- invariants ----------------------------------------------------

    def _check_state(self, label, vertices):
        """Record every broken invariant at the given vertices and their
        incident edges.  A step changes only v, its edges and the
        neighbours it compensates, so {v} | N(v) covers it."""
        bad = self.trace.invariant_violations.append
        step, modulus = self.step, self.modulus
        vcol, ecol = self.vcol, self.ecol
        base_edge = self.base_edge
        processed = self.shift
        for u in vertices:
            if u in processed:
                if self.colouring.weighted_degree(self.g, u) != self.target[u]:
                    bad(f"after {label}: sum of {u} drifted from its target")
                unit = modulus if u in self.stats.big_set else step
                if vcol[u] not in (self.anchor[u], self.anchor[u] + unit):
                    bad(f"after {label}: colour of {u} left its envelope")
                if vcol[u] != self.anchor[u] + max(processed[u], 0):
                    bad(f"after {label}: colour of {u} does not match its shift")
                if self.anchor[u] > modulus:
                    bad(f"after {label}: anchor of {u} above the modulus")
            incident = []
            for w in self.g.adjacency[u]:
                key = edge_key(u, w)
                ce = ecol[key]
                rho = ce % modulus
                incident.append(rho)
                if w < u and w in vertices:
                    continue            # checked from w
                if rho not in {x % modulus for x in shifted_set(base_edge[key], step)}:
                    bad(f"after {label}: edge {key} left its residue class")
                if not 1 <= ce <= self.params.palette_max:
                    bad(f"after {label}: edge {key} colour {ce} out of range")
                if self.alterations.get(key, 0) > 2:
                    bad(f"after {label}: edge {key} altered more than twice")
                # properness modulo the modulus, ignoring unprocessed vertices
                for end in key:
                    if end in processed and vcol[end] % modulus == rho:
                        bad(f"after {label}: edge {key} matches vertex {end}")
                if (u in processed and w in processed
                        and vcol[u] % modulus == vcol[w] % modulus):
                    bad(f"after {label}: adjacent vertices {key[0]},{key[1]} share a residue")
            if len(set(incident)) != len(incident):
                bad(f"after {label}: adjacent edges at {u} share a residue")


def run(g, radius, seed, check_invariants=False):
    """Full pipeline: palette parameters, the r-ball table, ordering, base
    edge colouring, recolouring steps and, if asked, the final checks.

    Returns (TotalColouring, RunTrace, OrderingCertificate); raises RunError
    when a step finds no free target sum, ValueError below radius 1, and
    PaletteError, before any exact arithmetic, when the headline bound at the
    max degree and radius, each raised to palette's floor (MIN_DEGREE,
    MIN_RADIUS), overflows a float.  The steps read the r-ball table built
    here through _Run; from MIN_RADIUS up, the ordering reads the same table
    back from the graph's cache.
    With check_invariants, each step is checked at its vertex and neighbours,
    and every vertex once after the last step; broken invariants go to
    trace.invariant_violations.  Radius 1 is accepted; the palette arithmetic
    then uses MIN_RADIUS (noted in trace.notes, as is a max degree below
    MIN_DEGREE).  A certificate still invalid when the round budget runs out
    is noted as "ordering certificate not fully valid: K failing vertices
    after R rounds", and the run goes on with its ordering.  Identical
    (graph, radius, seed) inputs give identical outputs.
    """
    params = compute_params(max(g.max_degree, MIN_DEGREE), max(radius, MIN_RADIUS))
    balls = all_r_neighbourhoods(g, radius)
    cert = resample_until_valid(g, radius, seed)
    runner = _Run(g, params, balls, check_invariants)
    if radius != params.radius:
        runner.trace.notes.append(
            f"radius {radius} run with radius-{params.radius} palette arithmetic")
    if g.max_degree != params.max_degree:
        runner.trace.notes.append(
            f"max degree {g.max_degree} run with degree-{params.max_degree} palette arithmetic")
    if not cert.valid:
        runner.trace.notes.append(
            "ordering certificate not fully valid: "
            f"{len(failing_vertices(cert.checks))} failing vertices after "
            f"{cert.resample_rounds} rounds")

    for v in cert.ordering:
        runner.process_vertex(v)
    if check_invariants:
        runner._check_state("all steps", g.vertices())
    return runner.colouring, runner.trace, cert


def replay(g, trace):
    """Rebuild the final colouring from the base edge colours and the steps,
    each of which sets its own vertex's colour."""
    vcol = {}
    ecol = dict(zip(g.edges, trace.base_edge_colours))
    for rec in trace.steps:
        for key, delta in rec.edge_deltas:
            ecol[key] += delta
        for u, delta in rec.compensations:
            vcol[u] += delta
        vcol[rec.vertex] = rec.base_colour
    return TotalColouring(vcol, ecol)
