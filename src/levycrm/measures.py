"""Base measures, piecewise-constant functions, and atomic point measures.

A base measure lives on an axis-aligned box domain in R^d and has a
piecewise-constant density on a rectangular grid plus an optional list of
fixed atoms.  Piecewise-constant functions over the same domain represent
spatially varying parameters such as a concentration c(w) or a scale th(w).
Because both sides are constant on grid cells, every integral used here is
an exact finite sum over the common grid refinement; no quadrature enters.

Point measures are the simulation output: finitely many atoms held as
columns, an (n, dim) array of locations and matching arrays of jumps and of
the round and subround that produced each atom.  ``draw_cells`` is the draw
engine both process families run on: it draws the finite Poisson processes
(cells) of many draws at once, in a few across-keys reads.

``_integer`` is the one reader of every integer parameter of the library,
from round indices to arrays of observed counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .streams import (
    StreamCursor,
    _absorb_mixed,
    _path_mix,
    _ragged_index,
    _words_to_uniform,
    batch_poisson,
    ragged_words,
)


class DomainError(ValueError):
    """A location, box, or measure falls outside the relevant domain."""


class UnsupportedParameterError(ValueError):
    """A parameter combination the construction does not support."""


class OracleError(RuntimeError):
    """A numerical oracle failed to reach its required tolerance."""


def _integer(value, name: str, low: int):
    """An integer parameter (an index, a truncation level or a count) as an int.

    An int, a numpy integer or an integral float passes; a bool (numpy's
    too), NaN, an infinity, a fraction or a non-number raises ValueError, as
    does a value below ``low``, with "{name} must be >= {low}".  An array is
    read entry by entry, into an int64 array of its shape.
    """
    if np.ndim(value):
        # as objects, so a bool in a list of ints is not made an int first
        a = np.asarray(value, dtype=object)
        ints = [_integer(v, name, low) for v in a.ravel().tolist()]
        return np.array(ints, dtype=np.int64).reshape(a.shape)
    value = np.asarray(value).item()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


class Domain:
    """Axis-aligned box in R^d given by per-dimension (lo, hi) bounds.

    With no arguments this is the unit interval.
    """

    __slots__ = ("bounds",)

    def __init__(self, bounds=None):
        if bounds is None:
            bounds = [(0.0, 1.0)]
        b = np.asarray(bounds, dtype=np.float64)
        if b.ndim == 1 and b.size == 2:
            b = b.reshape(1, 2)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError("bounds must be a (dim, 2) array of (lo, hi) pairs")
        if not np.all(np.isfinite(b)):
            raise ValueError("domain bounds must be finite")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ValueError("each lower bound must be below its upper bound")
        self.bounds = b
        self.bounds.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.bounds[:, 1] - self.bounds[:, 0]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def __eq__(self, other):
        if not isinstance(other, Domain):
            return NotImplemented
        return self.bounds.shape == other.bounds.shape and bool(
            np.all(self.bounds == other.bounds)
        )

    def __hash__(self):
        return hash(self.bounds.tobytes())

    def __repr__(self):
        pairs = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.bounds)
        return f"Domain({pairs})"


def as_boxes(boxes, domain: Domain) -> np.ndarray:
    """Normalize a box collection to shape (m, dim, 2) and check bounds.

    Accepts a single (lo, hi) pair in one dimension, a single box as a list
    of per-dimension pairs, or a list of boxes.  Boxes must lie inside the
    domain; a box outside it raises DomainError.
    """
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 2 and domain.dim == 1:
        arr = arr.reshape(1, 1, 2)
    elif arr.ndim == 2 and arr.shape == (domain.dim, 2):
        arr = arr.reshape(1, domain.dim, 2)
    elif arr.ndim == 3 and arr.shape[1:] == (domain.dim, 2):
        pass
    else:
        raise ValueError(f"cannot interpret boxes of shape {arr.shape} in {domain}")
    if not np.all(arr[..., 0] <= arr[..., 1]):
        raise ValueError("box lower corners must not exceed upper corners")
    lo, hi = domain.bounds[:, 0], domain.bounds[:, 1]
    if np.any(arr[..., 0] < lo) or np.any(arr[..., 1] > hi):
        raise DomainError("box extends outside the domain")
    return arr


class PiecewiseConst:
    """Function on a domain, constant on the cells of a rectangular grid.

    ``edges`` holds one strictly increasing 1-D array per dimension, running
    from the domain's lower to upper bound; ``values`` has one entry per
    grid cell.  Evaluation at an upper boundary uses the last cell.
    """

    __slots__ = ("domain", "edges", "values")

    def __init__(self, domain: Domain, edges, values):
        self.domain = domain
        edges = tuple(np.asarray(e, dtype=np.float64) for e in edges)
        if len(edges) != domain.dim:
            raise ValueError("need one edge array per dimension")
        for d, e in enumerate(edges):
            if e.ndim != 1 or e.size < 2 or not np.all(np.diff(e) > 0):
                raise ValueError("edges must be strictly increasing 1-D arrays")
            if e[0] != domain.bounds[d, 0] or e[-1] != domain.bounds[d, 1]:
                raise ValueError("edge arrays must span the domain exactly")
        values = np.asarray(values, dtype=np.float64)
        shape = tuple(e.size - 1 for e in edges)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match grid {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("cell values must be finite")
        self.edges = edges
        self.values = values

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "PiecewiseConst":
        edges = [domain.bounds[d] for d in range(domain.dim)]
        return cls(domain, edges, np.full((1,) * domain.dim, float(value)))

    @property
    def is_constant(self) -> bool:
        return self.values.size == 1 or bool(
            np.all(self.values == self.values.flat[0])
        )

    def cell_volumes(self) -> np.ndarray:
        return _cell_volumes(self.edges)

    def at(self, points) -> np.ndarray:
        """Evaluate at an (n, dim) array of points inside the domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not np.all(self.domain.contains(pts)):
            raise DomainError("point outside the domain")
        idx = []
        for d, e in enumerate(self.edges):
            i = np.searchsorted(e, pts[:, d], side="right") - 1
            idx.append(np.clip(i, 0, e.size - 2))
        return self.values[tuple(idx)]

    def map(self, fn) -> "PiecewiseConst":
        """Apply an elementwise function to the cell values."""
        return PiecewiseConst(self.domain, self.edges, fn(self.values))

    def on_grid(self, edges) -> np.ndarray:
        """Cell values resampled onto a refinement of this function's grid."""
        idx = []
        for d, e in enumerate(edges):
            centers = 0.5 * (e[:-1] + e[1:])
            i = np.searchsorted(self.edges[d], centers, side="right") - 1
            idx.append(np.clip(i, 0, self.edges[d].size - 2))
        return self.values[np.ix_(*idx)]

    def times(self, other) -> "PiecewiseConst":
        if np.isscalar(other):
            return self.map(lambda v: v * other)
        edges = common_edges(self, other)
        return PiecewiseConst(
            self.domain, edges, self.on_grid(edges) * other.on_grid(edges)
        )

    def integral(self, boxes=None) -> float:
        """Exact integral over the domain, or over a union of boxes."""
        if boxes is None:
            return float(np.sum(self.values * self.cell_volumes()))
        # times 1.0 leaves every cell product bit-identical
        one = PiecewiseConst.constant(self.domain, 1.0)
        return weighted_cell_integral(self, one, boxes)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def common_edges(*fns: PiecewiseConst):
    domain = fns[0].domain
    for f in fns[1:]:
        if f.domain != domain:
            raise DomainError("functions live on different domains")
    return tuple(_union(*[f.edges[d] for f in fns]) for d in range(domain.dim))


def _edges_with_boxes(edges, boxes: np.ndarray):
    return tuple(_union(e, boxes[:, d, :]) for d, e in enumerate(edges))


def _union(*arrays) -> np.ndarray:
    """Sorted distinct values of the arrays, as numpy's ``union1d`` gives.

    numpy's ``union1d`` and ``unique`` import ``numpy.ma``, which costs more
    start-up time than every integral here.
    """
    v = np.sort(np.concatenate([np.ravel(a) for a in arrays]))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _cell_volumes(edges) -> np.ndarray:
    diffs = [np.diff(e) for e in edges]
    return reduce(np.multiply.outer, diffs) if len(diffs) > 1 else diffs[0]


def _in_boxes(points: np.ndarray, boxes) -> np.ndarray:
    """Mask of the (n, dim) points that lie in some closed (m, dim, 2) box."""
    hit = np.zeros(len(points), dtype=bool)
    for box in boxes:
        hit |= np.all((points >= box[:, 0]) & (points <= box[:, 1]), axis=1)
    return hit


def _covered_cells(edges, boxes: np.ndarray) -> np.ndarray:
    """Boolean grid marking cells whose center lies in some box."""
    centers = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in edges], indexing="ij")
    points = np.stack([c.ravel() for c in centers], axis=1)
    return _in_boxes(points, boxes).reshape(centers[0].shape)


def positive_function(value, domain: Domain, name: str) -> PiecewiseConst:
    """Coerce a scalar or piecewise function to a strictly positive one."""
    if np.isscalar(value):
        value = PiecewiseConst.constant(domain, float(value))
    if value.domain != domain:
        raise ValueError(f"{name} must live on the base measure's domain")
    if value.min() <= 0:
        raise ValueError(f"{name} must be strictly positive")
    return value


class BaseMeasure:
    """Finite measure: piecewise-constant density plus fixed atoms.

    ``atom_locations`` is an (m, dim) array and ``atom_masses`` the matching
    nonnegative masses.  The total mass must be finite and positive measures
    are enforced cellwise.
    """

    __slots__ = ("domain", "density", "atom_locations", "atom_masses")

    def __init__(self, density: PiecewiseConst, atom_locations=None, atom_masses=None):
        if density.values.min() < 0:
            raise ValueError("density values must be nonnegative")
        self.domain = density.domain
        self.density = density
        if atom_locations is None:
            atom_locations = np.empty((0, self.domain.dim))
            atom_masses = np.empty(0)
        locs = np.atleast_2d(np.asarray(atom_locations, dtype=np.float64))
        masses = np.atleast_1d(np.asarray(atom_masses, dtype=np.float64))
        if locs.shape[0] != masses.shape[0]:
            raise ValueError("atom locations and masses must align")
        if locs.ndim != 2 or locs.shape[1] != self.domain.dim:
            raise ValueError(
                f"atom locations must be points of dimension {self.domain.dim}"
            )
        if locs.shape[0] and not np.all(self.domain.contains(locs)):
            raise DomainError("atom outside the domain")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise ValueError("atom masses must be finite and nonnegative")
        rows = locs[np.lexsort(locs.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("atom locations must be distinct")
        self.atom_locations = locs
        self.atom_masses = masses

    @classmethod
    def uniform(cls, domain: Domain, total_mass: float) -> "BaseMeasure":
        """Uniform measure with the given total mass."""
        if total_mass <= 0 or not np.isfinite(total_mass):
            raise ValueError("total mass must be finite and positive")
        return cls(PiecewiseConst.constant(domain, total_mass / domain.volume))

    @property
    def total_mass(self) -> float:
        return self.density.integral() + float(self.atom_masses.sum())

    def scaled(self, factor) -> "BaseMeasure":
        """Measure with density (and atom masses) multiplied by ``factor``.

        ``factor`` may be a scalar or a PiecewiseConst on the same domain;
        atoms pick up the factor evaluated at their location.
        """
        new_density = self.density.times(factor)
        if self.atom_masses.size == 0:
            return BaseMeasure(new_density)
        if np.isscalar(factor):
            f = np.full(self.atom_masses.shape, float(factor))
        else:
            f = factor.at(self.atom_locations)
        return BaseMeasure(new_density, self.atom_locations, self.atom_masses * f)

    def mass_of(self, boxes) -> float:
        """Measure of a union of closed boxes, atoms included."""
        return self.integral_against(PiecewiseConst.constant(self.domain, 1.0), boxes)

    def integral_against(self, f: PiecewiseConst, boxes=None) -> float:
        """Exact integral of f against this measure, optionally over boxes."""
        total = weighted_cell_integral(self.density, f, boxes)
        if self.atom_masses.size:
            w = f.at(self.atom_locations)
            if boxes is None:
                total += float((self.atom_masses * w).sum())
            else:
                hit = _in_boxes(self.atom_locations, as_boxes(boxes, self.domain))
                total += float((self.atom_masses * w)[hit].sum())
        return total


def weighted_cell_integral(density: PiecewiseConst, f: PiecewiseConst, boxes=None):
    """Integral of the product of two piecewise-constant functions."""
    edges = common_edges(density, f)
    if boxes is not None:
        boxes = as_boxes(boxes, density.domain)
        edges = _edges_with_boxes(edges, boxes)
    prod = density.on_grid(edges) * f.on_grid(edges) * _cell_volumes(edges)
    if boxes is not None:
        prod = prod * _covered_cells(edges, boxes)
    return float(prod.sum())


@dataclass(frozen=True)
class WeightedAtom:
    """One atom of a simulated process draw.

    ``subround_h`` is 0 for families without an h index; ``origin`` is one
    of {prior, posterior-observed, posterior-new}.
    """

    location: tuple
    jump: float
    round_k: int
    subround_h: int = 0
    origin: str = "prior"


class PointMeasure:
    """Finite atomic measure produced by simulation, held as columns.

    Atom ``i`` sits at ``locations[i]`` (an (n, dim) array) with jump
    ``jumps[i]``; ``round_k[i]`` and ``subround_h[i]`` say which round and
    subround drew it, and either may be given as one value for all atoms.
    """

    __slots__ = ("domain", "locations", "jumps", "round_k", "subround_h")

    def __init__(self, domain: Domain, locations, jumps, round_k=0, subround_h=0):
        jumps = np.asarray(jumps, dtype=np.float64)
        locations = np.asarray(locations, dtype=np.float64)
        if jumps.ndim != 1 or locations.shape != (jumps.size, domain.dim):
            raise ValueError("need one jump and one domain point per atom")
        if not np.all(np.isfinite(jumps)):
            raise ValueError("atom jumps must be finite")
        self.domain = domain
        self.locations = locations
        self.jumps = jumps
        self.round_k = np.broadcast_to(np.asarray(round_k, np.int64), jumps.shape)
        self.subround_h = np.broadcast_to(np.asarray(subround_h, np.int64), jumps.shape)

    @classmethod
    def concat(cls, domain: Domain, parts) -> "PointMeasure":
        """Measure of (locations, jumps, round_k, subround_h) tuples, in order."""
        ints = np.empty(0, np.int64)
        empty = (np.empty((0, domain.dim)), np.empty(0), ints, ints)
        return cls(domain, *(np.concatenate(c) for c in zip(empty, *parts)))

    @property
    def columns(self) -> tuple:
        return self.locations, self.jumps, self.round_k, self.subround_h

    @property
    def atoms(self) -> list[WeightedAtom]:
        """The atoms as objects, built anew on each access."""
        return [
            WeightedAtom(tuple(loc), jump, k, h)
            for loc, jump, k, h in zip(*(c.tolist() for c in self.columns))
        ]

    def __len__(self):
        return self.jumps.size

    def __add__(self, other: "PointMeasure") -> "PointMeasure":
        if self.domain != other.domain:
            raise DomainError("cannot concatenate measures on different domains")
        return PointMeasure.concat(self.domain, [self.columns, other.columns])

    @property
    def total_mass(self) -> float:
        return float(self.jumps.sum())

    def mass_in(self, boxes) -> float:
        """Sum of jumps whose atom lies in the closed box union."""
        hit = _in_boxes(self.locations, as_boxes(boxes, self.domain))
        return float(self.jumps[hit].sum())


@dataclass(frozen=True)
class LocationTable:
    """What locations are drawn from: cumulative masses, one row per table.

    Each row of the 2-D ``cum`` is one measure's running sum of the masses of
    the grid cells that ``edges`` spans, in C order, then of the fixed atoms
    at the (m, dim) ``atoms``, which every row shares.  ``_place`` reads it.
    """

    cum: np.ndarray
    edges: tuple
    atoms: np.ndarray


def location_table(measure: BaseMeasure) -> LocationTable:
    """The location table of a base measure: its ``cum`` is one row."""
    cells = (measure.density.values * measure.density.cell_volumes()).reshape(1, -1)
    cum = np.cumsum(np.concatenate([cells, measure.atom_masses[None]], axis=1), axis=1)
    return LocationTable(cum, measure.density.edges, measure.atom_locations)


def _place(table: LocationTable, rows, n, u) -> tuple[np.ndarray, np.ndarray]:
    """Locations of ``n[i]`` points for each of many streams, and the words each used.

    ``table.cum`` stacks one row of cumulative masses per table, and stream
    ``i`` samples from row ``rows[i]``; its segment of ``u``
    holds the most words its points can take, ``n[i] (1 + dim)``.  Every
    word gets a component choice; then a walk over the choices that start a
    point gives each point's first word: a cell takes 1 + dim words, an
    atom one.  Returns the points of every stream, in stream order.
    """
    n_cells = table.cum.shape[1] - len(table.atoms)
    dim = len(table.edges)
    word_owner, _, word0 = _ragged_index(n * (1 + dim))
    comp = _pick(table.cum, rows[word_owner], u)
    steps = np.where(comp < n_cells, 1 + dim, 1)
    owner, within, _ = _ragged_index(n)
    stride = steps.max(initial=1)
    if np.all(steps == stride):
        # one stride everywhere: no walk
        first = word0[owner] + within * stride
        used = n * stride
    else:
        walk, used, steps = [], [], steps.tolist()
        for p, m in zip(word0.tolist(), n.tolist()):
            p0 = p
            for _ in range(m):
                walk.append(p)
                p += steps[p]
            used.append(p - p0)
        first, used = np.array(walk, dtype=np.intp), np.array(used)
    j = comp[first]
    cell = j < n_cells
    out = np.empty((first.size, dim))
    idx = np.unravel_index(j[cell], tuple(e.size - 1 for e in table.edges))
    for d, e in enumerate(table.edges):
        lo, hi = e[idx[d]], e[idx[d] + 1]
        out[cell, d] = lo + u[first[cell] + 1 + d] * (hi - lo)
    out[~cell] = table.atoms[j[~cell] - n_cells]
    return out, used


def _pick(cums: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The entry each uniform picks from its row of stacked cumulative sums.

    ``u[i]`` picks, from row ``row[i]`` of ``cums``, the first entry at or
    above ``u[i]`` times that row's total, capped at the last entry.  One
    ``searchsorted`` runs per distinct row, over the uniforms that use it.
    """
    width = cums.shape[1]
    out = np.zeros(u.size, np.intp)
    if width > 1:
        x = u * cums[row, -1]
        order = np.argsort(row, kind="stable")
        ends = np.searchsorted(row[order], np.arange(cums.shape[0] + 1))
        for r in np.flatnonzero(np.diff(ends)):
            sel = order[ends[r]:ends[r + 1]]
            out[sel] = np.searchsorted(cums[r], x[sel], side="left")
        out = np.minimum(out, width - 1)
    return out


def _marks(k0s, k1s, starts, n, cums, rows) -> tuple:
    """Every stream's points' marks and jump uniforms, and each stream's first point.

    Stream ``i`` reads ``n[i]`` mark words from word ``starts[i]``, each picking
    (``_pick``) an entry of row ``rows[i]`` of ``cums``, then ``n[i]`` jump words.
    """
    w = _words_to_uniform(ragged_words(k0s, k1s, starts, 2 * n))
    owner, within, first = _ragged_index(n)
    pos = 2 * first[owner] + within
    return _pick(cums, rows[owner], w[pos]), w[pos + n[owner]], first


# Stream keys per batch of ``_count_pass``, the draw engine's and the
# posterior resampler's: each batch's count pass stays this size whatever
# the replicas.  It also bounds the live streams a yielded run holds, the
# (k, h) cells in a block of ``gamma._grid`` (199 x 40 is one block) and
# the table entries, rounds times width, of ``beta._RoundPlan.blocks``.
_DRAW_BATCH = 8192
# Atoms per run of live streams that ``_count_pass`` yields: the consumers'
# word reads and their temporaries grow with the atoms, not the keys, so
# the pooled live streams are cut into runs of at most this many (a stream
# above it runs alone).  The benchmark's largest run holds about 128k atoms
# (posterior-resample, seeds 1 to 10), so no benchmark run is cut by it.
_BATCH_ATOMS = 2**18


class Cells(NamedTuple):
    """A block of the finite Poisson processes (cells) that every draw runs.

    Cell ``i`` reads stream ``root.child(*(p[i] for p in path))`` of each
    draw's root, where ``path`` holds one int64 array per level: ``(k,)``
    for a beta round, ``(k, h)`` for a gamma sub-round.  Its count has rate
    ``rates[i]``, its locations follow row ``row[i]`` of ``locations``, and
    each of its atoms reads ``width[i]`` jump words, or calls the engine's
    fallback where that is 0.  Its atoms' ``round_k`` and ``subround_h``
    are the path's first and second index (0 where there is none).
    """

    path: tuple
    rates: np.ndarray
    locations: LocationTable
    row: np.ndarray
    width: np.ndarray


def _count_pass(r0, r1, path, rates):
    """The streams with a nonzero count among every (root, cell) pair.

    Cell ``i`` of root ``j`` reads the stream keyed by ``(r0[j], r1[j])``
    with ``tuple(p[i] for p in path)`` absorbed, and draws its count at
    rate ``rates[j, i]``, where ``rates`` broadcasts to (roots, cells).  The
    pairs go in flat, root-major batches of at most ``_DRAW_BATCH`` keys
    with one ``batch_poisson`` each.  The live streams are pooled over
    batches, so a sparse pass feeds its consumer a few full runs, not one
    per batch: they are yielded in (root, cell) order as the arrays
    ``(root, cell, count, k0, k1, first free word)``, in runs of
    ``_DRAW_BATCH`` streams cut shorter where the next stream would take
    the counts past ``_BATCH_ATOMS``, then the rest at the pass's end.  A
    path element's half of each absorb step is mixed once per cell.
    """
    rates = np.broadcast_to(rates, (r0.size, path[0].size))
    mixed = [_path_mix(p) for p in path]
    held = None
    for lo in range(0, rates.size, _DRAW_BATCH):
        root, cell = np.divmod(
            np.arange(lo, min(lo + _DRAW_BATCH, rates.size)), rates.shape[1]
        )
        k0, k1 = r0[root], r1[root]
        for g, s in mixed:
            k0, k1 = _absorb_mixed(k0, k1, g[cell], s[cell])
        count, used = batch_poisson(rates[root, cell], k0, k1)
        live = np.flatnonzero(count)
        out = tuple(a[live] for a in (root, cell, count, k0, k1, used))
        held = out if held is None else tuple(map(np.concatenate, zip(held, out)))
        # free the batch-size arrays before the consumer runs
        del root, cell, k0, k1, count, used, live
        last = lo + _DRAW_BATCH >= rates.size
        while held[0].size >= _DRAW_BATCH or (last and held[0].size):
            ends = np.cumsum(held[2][:_DRAW_BATCH])
            b = max(int(np.searchsorted(ends, _BATCH_ATOMS, side="right")), 1)
            yield tuple(x[:b] for x in held)
            held = tuple(x[b:] for x in held)


def draw_cells(domain, roots, blocks, jumps, fallback=None, signed=False) -> list:
    """One point measure per draw key, each the superposition of the same cells.

    ``roots`` holds the draws' stream keys ``(k0s, k1s)`` and ``blocks``
    yields the cells as ``Cells`` blocks, in order.  A draw holds its cells'
    atoms in cell order; each cell reads its stream as the count, the
    locations (per atom a component-choice word, then one word per
    dimension where a density cell is chosen; see ``_place``), ``width``
    jump words per atom and, if ``signed``, one sign word per atom.
    ``jumps(k, h, locs, u)`` maps the ``(m, width)`` uniforms of m atoms of
    one width to their jumps; a cell of width 0 calls ``fallback(cursor, k,
    h, locs)`` instead, with the cursor at its jump words.

    Each block's (draw, cell) streams take their counts in ``_count_pass``,
    a batch of at most ``_DRAW_BATCH`` keys at a time, which pools the live
    streams of its batches into runs of up to ``_DRAW_BATCH`` streams and
    ``_BATCH_ATOMS`` atoms.  Each run takes two across-keys reads: one
    ``ragged_words`` read of its location words and one of its jump and
    sign words, from where its locations end.  Word positions and float
    operations are a one-stream draw's, so each draw equals its cells drawn
    for its key alone.
    """
    r0, r1 = (np.asarray(r, dtype=np.uint64).reshape(-1) for r in roots)
    parts = [
        _draw_block(cells, live, jumps, fallback, signed)
        for cells in blocks
        for live in _count_pass(r0, r1, cells.path, cells.rates)
    ]
    ints = np.empty(0, np.int64)
    empty = (ints, np.empty((0, domain.dim)), np.empty(0), ints, ints)
    draw, *cols = (np.concatenate(c) for c in zip(empty, *parts))
    # parts run block by block; a stable sort by draw puts each draw's cells
    # back in order
    order = np.argsort(draw, kind="stable")
    draw, cols = draw[order], [c[order] for c in cols]
    ends = np.searchsorted(draw, np.arange(r0.size + 1))
    return [
        PointMeasure(domain, *(c[a:b] for c in cols))
        for a, b in zip(ends[:-1], ends[1:])
    ]


def _draw_block(cells, live, jumps, fallback, signed) -> tuple:
    """(draw, locations, jumps, round_k, subround_h) of the atoms of one run
    of live streams that ``_count_pass`` yields."""
    draw, cell, n, s0, s1, start = live
    dim = len(cells.locations.edges)
    u = _words_to_uniform(ragged_words(s0, s1, start, n * (1 + dim)))
    locs, loc_words = _place(cells.locations, cells.row[cell], n, u)
    pos = start + loc_words

    k = cells.path[0][cell]
    h = cells.path[1][cell] if len(cells.path) > 1 else np.zeros_like(k)
    width = cells.width[cell]
    reg = width > 0
    words = np.where(reg, n * (width + signed), 0)
    w = _words_to_uniform(ragged_words(s0, s1, pos, words))
    base = np.cumsum(words) - words
    owner, within, first = _ragged_index(n)
    out = np.empty(owner.size)
    wa = width[owner]
    for g in np.flatnonzero(np.bincount(wa, minlength=1)[1:]) + 1:
        sel = np.flatnonzero(wa == g)
        o = owner[sel]
        idx = (base[o] + within[sel] * g)[:, None] + np.arange(g)
        out[sel] = jumps(k[o], h[o], locs[sel], w[idx])
    if signed:
        sel = np.flatnonzero(wa > 0)
        o = owner[sel]
        sign_u = w[base[o] + n[o] * width[o] + within[sel]]
        out[sel] = out[sel] * np.where(sign_u < 0.5, 1.0, -1.0)
    for i in np.flatnonzero(~reg):
        cur = StreamCursor(s0[i], s1[i], int(pos[i]))
        sl = slice(first[i], first[i] + n[i])
        m = fallback(cur, int(k[i]), int(h[i]), locs[sl])
        if signed:
            m = m * np.where(cur.uniforms(int(n[i])) < 0.5, 1.0, -1.0)
        out[sl] = m
    return draw[owner], locs, out, k[owner], h[owner]
