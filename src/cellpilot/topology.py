"""Geographic scenario model: cells, buildings, streets, and the geometric
queries the simulator needs (wall crossings, distances, valid UE placement).

Topology files are versioned JSON with extension ``.topo`` (schema in
README). Synthetic scenarios at the scale of the three study regions are
bundled under ``cellpilot/data`` and can be regenerated with
:func:`generate_topology`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .container import write_atomic

TOPOLOGY_FORMAT = "cellpilot-topology"
TOPOLOGY_VERSION = 1

DEFAULT_TX_POWER_DBM = 43.0
DEFAULT_BEAMWIDTH_DEG = 120.0
MAX_PRIORITY = 7           # cell priorities are 0..MAX_PRIORITY
# Angle (rad) by which a building's extent seen from a cell site is widened
# before UEs are matched against it: far above the rounding of the angles.
SECTOR_PAD_RAD = 1e-6


class TopologyError(Exception):
    """Parse or validation failure; message names the offending field."""


@dataclass(frozen=True)
class Tower:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class Cell:
    id: str
    tower_id: str
    position: tuple[float, float]
    azimuth: float          # degrees [0, 360), clockwise from +y
    beamwidth: float        # degrees (0, 360]
    frequency: float        # Hz
    bandwidth: float        # Hz
    priority: int           # 0..MAX_PRIORITY, higher = preferred layer
    tx_power: float = DEFAULT_TX_POWER_DBM  # dBm


class _Zones(NamedTuple):
    """Python-float copies of the placement tables :func:`sample_placement`
    reads: street lengths and buildings with their running sums and totals
    as the numpy code computes them (``cumsum``, pairwise ``sum``)."""
    street_cum: list[float]            # running sum of the street lengths
    street_len: list[float]            # each street's segment-length sum
    street_total: float
    area_cum: list[float]              # running sum of the building areas
    area_total: float
    polys: list[list[tuple[float, float]]]
    boxes: list[tuple[float, float, float, float]]   # xmin, ymin, xmax, ymax


class _StreetWalls(NamedTuple):
    """The safe arc intervals of every street, in (street, arc) order, and
    the per-site wall counts on each (see :func:`_build_street_walls`)."""
    offset: np.ndarray    # (streets,) key of each street's arc 0
    key: np.ndarray       # (K,) offset[street] + lo, nondecreasing
    street: np.ndarray    # (K,)
    lo: np.ndarray        # (K,) open arc interval (lo, hi)
    hi: np.ndarray
    counts: np.ndarray    # (K, sites), the smallest uint that holds the edge count


@dataclass
class Topology:
    """Immutable after load; safe for concurrent read by parallel episodes."""

    area_bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    towers: list[Tower]
    cells: list[Cell]
    buildings: list[np.ndarray]   # convex simple polygons, Vx2 (no repeated first vertex)
    streets: list[np.ndarray]     # polylines, Px2

    # derived arrays, filled in __post_init__ for vectorized access
    cell_xy: np.ndarray = field(init=False)
    cell_azimuth: np.ndarray = field(init=False)
    cell_beamwidth: np.ndarray = field(init=False)
    cell_frequency: np.ndarray = field(init=False)
    cell_bandwidth: np.ndarray = field(init=False)
    cell_priority: np.ndarray = field(init=False)
    cell_tx_power: np.ndarray = field(init=False)
    _wall_edges: np.ndarray = field(init=False)     # 4xE rows x1,y1,x2,y2, grouped by building

    def __post_init__(self):
        self.cell_xy = np.array([c.position for c in self.cells], dtype=float).reshape(-1, 2)
        self.cell_azimuth = np.array([c.azimuth for c in self.cells], dtype=float)
        self.cell_beamwidth = np.array([c.beamwidth for c in self.cells], dtype=float)
        self.cell_frequency = np.array([c.frequency for c in self.cells], dtype=float)
        self.cell_bandwidth = np.array([c.bandwidth for c in self.cells], dtype=float)
        self.cell_priority = np.array([c.priority for c in self.cells], dtype=int)
        self.cell_tx_power = np.array([c.tx_power for c in self.cells], dtype=float)
        # each vertex with the next one of its polygon, the last with the first
        pts = np.concatenate(self.buildings) if self.buildings else np.zeros((0, 2))
        first, counts = self._wall_ranges
        nxt = np.arange(1, len(pts) + 1)
        nxt[first + counts - 1] = first
        self._wall_edges = np.hstack([pts, pts[nxt]]).T.copy()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def fingerprint(self) -> str:
        """sha256 over the canonical document; identifies topology content."""
        blob = json.dumps(topology_doc(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # Placement and mobility sums, computed on first use rather than at load.
    @functools.cached_property
    def street_segment_lengths(self) -> list[np.ndarray]:
        return [_polyline_lengths(s) for s in self.streets]

    @functools.cached_property
    def street_lengths(self) -> np.ndarray:
        return np.array([seg.sum() for seg in self.street_segment_lengths])

    @functools.cached_property
    def building_areas(self) -> np.ndarray:
        return np.array([_polygon_area(b) for b in self.buildings])

    @functools.cached_property
    def _street_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Streets padded to the longest one: segment counts (S,), segment
        lengths (S, M), arc length at each segment start (S, M; the running
        sum of the lengths before it) and vertices (S, M+1, 2)."""
        n = np.array([len(seg) for seg in self.street_segment_lengths], dtype=int)
        m = int(n.max(initial=0))
        seg = np.zeros((len(n), m))
        start = np.zeros((len(n), m))
        pts = np.zeros((len(n), m + 1, 2))
        for k, (line, lens) in enumerate(zip(self.streets, self.street_segment_lengths)):
            seg[k, :len(lens)] = lens
            start[k, 1:len(lens)] = np.cumsum(lens)[:-1]
            pts[k, :len(line)] = line
        return n, seg, start, pts

    # Cell sites, per-building edge ranges and boxes for the wall-crossing test.
    @functools.cached_property
    def _cell_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct cell positions (S, 2) and the site of each cell (C,)."""
        sites, site_of = np.unique(self.cell_xy, axis=0, return_inverse=True)
        return sites, site_of.ravel()

    @functools.cached_property
    def _wall_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """First column in `_wall_edges` and edge count of each building."""
        counts = np.array([len(b) for b in self.buildings], dtype=int)
        return np.cumsum(counts) - counts, counts

    def _site_groups(self, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """Distinct (site, *columns) rows of the cells: the site (G,) and each
        column's value (G,) of each group, then the group of each cell (C,)."""
        _, site_of = self._cell_sites
        groups, group_of = np.unique(np.column_stack([site_of, *columns]),
                                     axis=0, return_inverse=True)
        return (groups[:, 0].astype(int), *groups[:, 1:].T.copy(), group_of.ravel())

    @functools.cached_property
    def _site_bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (site, frequency) pairs of the cells: the site (P,) and
        frequency (P,) of each pair and the pair of each cell (C,)."""
        return self._site_groups(self.cell_frequency)

    @functools.cached_property
    def _lobes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct (site, azimuth, beamwidth) antenna lobes of the cells: the
        site (L,), azimuth (L,) and beamwidth (L,) of each lobe and the lobe
        of each cell (C,)."""
        return self._site_groups(self.cell_azimuth, self.cell_beamwidth)

    @functools.cached_property
    def _wall_pad(self) -> float:
        """1e-9 of the largest building or cell coordinate."""
        return 1e-9 * max(np.abs(self._wall_edges).max(initial=0.0),
                          np.abs(self.cell_xy).max(initial=0.0))

    @functools.cached_property
    def _wall_boxes(self) -> np.ndarray:
        """(4, B) rows xmin, ymin, xmax, ymax of the building boxes, padded
        outward by `_wall_pad`, over 10^5 times the rounding of the crossing
        tests: a segment that misses a padded box can neither cross nor
        touch that building's walls."""
        if not self.buildings:
            return np.zeros((4, 0))
        lo, hi = _shape_boxes(self.buildings)
        return np.vstack([(lo - self._wall_pad).T, (hi + self._wall_pad).T])

    @functools.cached_property
    def _site_sectors(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per cell site, angle intervals (lo, hi, building), closed, in the
        range of ``arctan2``: the directions from the site under which each
        padded building box is seen, widened by SECTOR_PAD_RAD. An interval
        that crosses +-pi is split in two. A building whose padded box lies
        within 1000 pads of the site, or whose extent nears pi, gets
        (-inf, inf): every UE is its candidate. Farther out, a segment that
        the rounding of the box test (about 1e-15 of the largest coordinate)
        lets pass misses the box by an angle of at most about 1e-9 rad, well
        inside the widening."""
        sites, _ = self._cell_sites
        bx0, by0, bx1, by1 = self._wall_boxes
        margin = 1e3 * self._wall_pad
        corner_x, corner_y = np.stack([bx0, bx1, bx1, bx0]), np.stack([by0, by0, by1, by1])
        out = []
        for cx, cy in sites:
            # corner angles relative to the direction of the box centre
            ref = np.arctan2((by0 + by1) / 2 - cy, (bx0 + bx1) / 2 - cx)
            qx, qy = corner_x - cx, corner_y - cy
            rx, ry = np.cos(ref), np.sin(ref)
            rel = np.arctan2(rx * qy - ry * qx, rx * qx + ry * qy)        # (4, B)
            lo = ref + rel.min(axis=0) - SECTOR_PAD_RAD
            hi = ref + rel.max(axis=0) + SECTOR_PAD_RAD
            everyone = (((bx0 - margin <= cx) & (cx <= bx1 + margin)
                         & (by0 - margin <= cy) & (cy <= by1 + margin))
                        | (hi - lo > 3.0))
            lo[everyone], hi[everyone] = -np.inf, np.inf
            # an interval across +-pi becomes [lo, pi] and [-pi, hi], each
            # end taken into the range of arctan2
            under, over = ~everyone & (lo < -np.pi), ~everyone & (hi > np.pi)
            wrap = np.flatnonzero(under | over)
            tail_hi = np.where(over, hi - 2 * np.pi, hi)[wrap]
            lo = np.where(under, lo + 2 * np.pi, lo)
            hi = np.where(under | over, np.pi, hi)
            out.append((np.concatenate([lo, np.full(len(wrap), -np.pi)]),
                        np.concatenate([hi, tail_hi]),
                        np.concatenate([np.arange(len(lo)), wrap])))
        return out

    @functools.cached_property
    def _street_walls(self) -> _StreetWalls:
        return _build_street_walls(self)

    @functools.cached_property
    def _zones(self) -> _Zones:
        lengths, areas = self.street_lengths, self.building_areas
        return _Zones(np.cumsum(lengths).tolist(), lengths.tolist(), float(lengths.sum()),
                      np.cumsum(areas).tolist(), float(areas.sum()),
                      [list(map(tuple, b.tolist())) for b in self.buildings],
                      [(*b.min(axis=0).tolist(), *b.max(axis=0).tolist())
                       for b in self.buildings])


# ---------------------------------------------------------------------------
# Loading / validation
# ---------------------------------------------------------------------------

_REQUIRED = object()        # the default of a field that has none
_POSITIVE = 5e-324          # the least positive float: a range from it excludes 0


class _Field(NamedTuple):
    """One value of a ``.topo`` record: its JSON key, its kind (``str``, or
    ``float`` or ``int`` for a JSON number, which true, false and numeric
    strings are not), a number's closed range and a missing key's value."""
    key: str
    kind: type
    lo: float = 0.0
    hi: float = 0.0
    default: object = _REQUIRED


_X = _Field("x", float, -1e7, 1e7)
_Y = _X._replace(key="y")

# Every field of each record kind, in file order (reasons for the ranges in
# load_topology): area_bounds is one list [xmin, ymin, xmax, ymax], towers
# and cells are lists of objects, buildings and streets lists of [x, y] lists.
FIELDS = {
    "area_bounds": tuple(_X._replace(key=k) for k in ("xmin", "ymin", "xmax", "ymax")),
    "towers": (_Field("id", str), _X, _Y),
    "cells": (
        _Field("id", str),
        _Field("tower", str),
        _Field("azimuth_deg", float, -360.0, 360.0),
        _Field("beamwidth_deg", float, _POSITIVE, 360.0, DEFAULT_BEAMWIDTH_DEG),
        _Field("frequency_hz", float, 3.0, 3e12),
        _Field("bandwidth_hz", float, _POSITIVE, 3e12),
        _Field("priority", int, 0, MAX_PRIORITY),
        _Field("tx_power_dbm", float, -300.0, 100.0, DEFAULT_TX_POWER_DBM),
    ),
    "buildings": (_X, _Y),
    "streets": (_X, _Y),
}


def _value(f: _Field, v, ctx: str):
    """`v` as field `f` declares it: a str, or a float or int in range."""
    if f.kind is str:
        if type(v) is str:
            return v
    elif (type(v) is float or type(v) is int) and f.lo <= v <= f.hi:   # NaN fails
        if f.kind is float:
            return float(v)
        if v == int(v):
            return int(v)
    if v is _REQUIRED:
        raise TopologyError(f"{ctx}: missing field '{f.key}'")
    want = ("a string" if f.kind is str else f"an integer in [{f.lo}, {f.hi}]"
            if f.kind is int else f"a number in [{f.lo!r}, {f.hi!r}]")
    raise TopologyError(f"{ctx}: {f.key}: expected {want}, got {v!r}")


def _list(doc: dict, key: str, where: str, default=_REQUIRED) -> list:
    v = doc.get(key, default)
    if type(v) is not list:
        raise TopologyError(f"{where}: missing field '{key}'" if v is _REQUIRED
                            else f"{where}: {key}: expected a list, got {v!r}")
    return v


def _records(doc: dict, kind: str, where: str) -> list[list]:
    """doc[kind], a list of objects, as the declared values of each."""
    out = []
    for i, rec in enumerate(_list(doc, kind, where)):
        ctx = f"{where}: {kind}[{i}]"
        if type(rec) is not dict:
            raise TopologyError(f"{ctx}: expected an object, got {rec!r}")
        out.append([_value(f, rec.get(f.key, f.default), ctx) for f in FIELDS[kind]])
    return out


def _point_lists(doc: dict, kind: str, where: str) -> list[np.ndarray]:
    """doc[kind] as one (P, 2) float array per entry, all tested at once; only
    a failed test walks them value by value to name the one at fault."""
    shapes = _list(doc, kind, where, [])
    fx, fy = FIELDS[kind]
    try:
        out = [np.array(p, dtype=float) for p in shapes]
        xy = np.concatenate(out) if out else np.zeros((0, 2))
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is not None and all(a.ndim == 2 and a.shape[1] == 2 for a in out)
            and set(map(type, chain.from_iterable(chain.from_iterable(shapes)))) <= {float, int}
            and ((fx.lo <= xy[:, 0]) & (xy[:, 0] <= fx.hi)
                 & (fy.lo <= xy[:, 1]) & (xy[:, 1] <= fy.hi)).all()):
        return out
    for i, p in enumerate(shapes):
        ctx = f"{where}: {kind}[{i}]"
        if type(p) is not list or not p or any(type(q) is not list or len(q) != 2 for q in p):
            raise TopologyError(f"{ctx}: expected a list of [x, y] points")
        for j, (x, y) in enumerate(p):
            _value(fx, x, f"{ctx}[{j}]")
            _value(fy, y, f"{ctx}[{j}]")
    raise AssertionError(f"{where}: {kind}: refused but not named")


def load_topology(path) -> Topology:
    """Load a ``.topo`` file: each field is read as :data:`FIELDS` declares
    it, then the rules between fields are checked (:func:`validate_topology`).
    The reasons of the declared ranges:

    - coordinates (area_bounds, tower x/y, building and street vertices),
      within 1e7 m of the origin: a quarter of the Earth's circumference, so
      no planar scene is larger; the wall test's error bounds grow with the
      square of the largest coordinate;
    - azimuth_deg, [-360, 360]: one turn either way, taken mod 360;
    - beamwidth_deg, (0, 360]: at most the full circle;
    - frequency_hz, [3, 3e12]: the radio spectrum, 3 Hz to 3000 GHz;
    - bandwidth_hz, (0, 3e12]: no channel is wider than that spectrum;
    - priority, an integer in 0..MAX_PRIORITY: the reselection priorities,
      checked before the Topology builds its int arrays (1e300 overflows);
    - tx_power_dbm, [-300, 100]: 100 dBm (10 MW) is above any transmitter;
      -300 dBm, far below thermal noise, is a cell no UE hears.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TopologyError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:   # not UTF-8, an integer too long, deep nesting
        raise TopologyError(f"{path}: parse error: {exc}") from exc
    return _topology_from_doc(doc, str(path))


def _topology_from_doc(doc, where: str) -> Topology:
    """The validated Topology of a ``.topo`` document; messages start with
    `where`."""
    if type(doc) is not dict:
        raise TopologyError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != TOPOLOGY_FORMAT:
        raise TopologyError(f"{where}: format: expected '{TOPOLOGY_FORMAT}'")
    if type(doc.get("version")) is not int or doc["version"] != TOPOLOGY_VERSION:
        raise TopologyError(f"{where}: version: expected {TOPOLOGY_VERSION}, "
                            f"got {doc.get('version')!r}")
    bounds = _list(doc, "area_bounds", where)
    if len(bounds) != 4:
        raise TopologyError(f"{where}: area_bounds: expected [xmin, ymin, xmax, ymax]")
    bounds = tuple(_value(f, v, f"{where}: area_bounds")
                   for f, v in zip(FIELDS["area_bounds"], bounds))
    towers = [Tower(*values) for values in _records(doc, "towers", where)]
    tower_xy = {t.id: (t.x, t.y) for t in towers}
    cells = []
    for i, (cell_id, tower, azimuth, *rest) in enumerate(_records(doc, "cells", where)):
        if tower not in tower_xy:
            raise TopologyError(f"{where}: cells[{i}]: unknown tower '{tower}'")
        # twice: the first remainder of a tiny negative azimuth rounds to 360.0
        cells.append(Cell(cell_id, tower, tower_xy[tower], azimuth % 360.0 % 360.0, *rest))
    topo = Topology(bounds, towers, cells, _point_lists(doc, "buildings", where),
                    _point_lists(doc, "streets", where))
    validate_topology(topo)
    return topo


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _cross(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _polygon_is_simple(poly: np.ndarray) -> bool:
    """No two edges without a shared vertex cross properly (on Python floats:
    the products numpy scalars give, at a fraction of the cost)."""
    pts = poly.tolist()
    n = len(pts)
    edges = list(zip(pts, pts[1:] + pts[:1]))
    for i in range(n - 2):
        p1, p2 = edges[i]
        for q1, q2 in edges[i + 2:n - (i == 0)]:
            if (_cross(q1, q2, p1) * _cross(q1, q2, p2) < 0
                    and _cross(p1, p2, q1) * _cross(p1, p2, q2) < 0):
                return False
    return True


def _shape_boxes(shapes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(S, 2) lower and upper corners of the boxes of S nonempty point arrays."""
    starts = np.cumsum([0] + [len(s) for s in shapes[:-1]])
    pts = np.concatenate(shapes)
    return np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)


def validate_topology(topo: Topology) -> None:
    """Raise TopologyError naming the first violated rule between fields
    (each field's own kind and range are checked as it is read): unique ids,
    a non-degenerate area_bounds holding every cell, at least one cell and
    one building or street, simple polygons of 3 or more vertices, polylines
    of 2 or more and non-zero length, and every shape's box meeting the area."""
    xmin, ymin, xmax, ymax = topo.area_bounds
    if not (xmax > xmin and ymax > ymin):
        raise TopologyError("area_bounds: degenerate rectangle")
    if not topo.cells:
        raise TopologyError("cells: at least one cell is required")
    if not topo.buildings and not topo.streets:
        raise TopologyError("buildings, streets: at least one building or street "
                            "is required to place UEs")
    for kind, records in (("towers", topo.towers), ("cells", topo.cells)):
        seen = set()
        for i, r in enumerate(records):
            if r.id in seen:
                raise TopologyError(f"{kind}[{i}] (id={r.id}): duplicate id")
            seen.add(r.id)
    for i, c in enumerate(topo.cells):
        x, y = c.position
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            raise TopologyError(f"cells[{i}] (id={c.id}): position outside area_bounds")
    for kind, noun, least in (("buildings", "polygon", 3), ("streets", "polyline", 2)):
        shapes = getattr(topo, kind)
        for i, s in enumerate(shapes):
            if len(s) < least:
                raise TopologyError(f"{kind}[{i}]: {noun} needs >= {least} vertices")
            if kind == "buildings" and not _polygon_is_simple(s):
                raise TopologyError(f"{kind}[{i}]: polygon is self-intersecting")
        if not shapes:
            continue
        lo, hi = _shape_boxes(shapes)
        bad = np.flatnonzero((lo > (xmax, ymax)).any(axis=1) | (hi < (xmin, ymin)).any(axis=1))
        if bad.size:
            raise TopologyError(f"{kind}[{bad[0]}]: {noun} does not intersect area_bounds")
        bad = np.flatnonzero((lo == hi).all(axis=1))    # every vertex the same
        if kind == "streets" and bad.size:
            raise TopologyError(f"{kind}[{bad[0]}]: polyline has zero length")


def topology_doc(topo: Topology) -> dict:
    """Canonical JSON-ready document; also the basis for content hashing."""
    def records(kind, rows):
        """Objects with the keys of FIELDS[kind], in order, from `rows`."""
        keys = [f.key for f in FIELDS[kind]]
        return [dict(zip(keys, row)) for row in rows]

    return {
        "format": TOPOLOGY_FORMAT,
        "version": TOPOLOGY_VERSION,
        "area_bounds": list(topo.area_bounds),
        "towers": records("towers", [(t.id, t.x, t.y) for t in topo.towers]),
        "cells": records("cells", [(c.id, c.tower_id, c.azimuth, c.beamwidth, c.frequency,
                                    c.bandwidth, c.priority, c.tx_power) for c in topo.cells]),
        "buildings": [p.tolist() for p in topo.buildings],
        "streets": [p.tolist() for p in topo.streets],
    }


def save_topology(topo: Topology, path) -> None:
    text = json.dumps(topology_doc(topo), indent=1, sort_keys=True) + "\n"
    write_atomic(path, [text.encode()])


# ---------------------------------------------------------------------------
# Geometric queries
# ---------------------------------------------------------------------------

def wall_crossings_to_cells(ue_xy: np.ndarray, topo: Topology,
                            street: np.ndarray | None = None,
                            arc: np.ndarray | None = None) -> np.ndarray:
    """Crossing counts for every (UE, cell) pair; shape (N, C).

    A pair counts the building edges whose interior its open segment
    crosses transversally, plus the polygon vertices lying strictly inside
    the open segment (a vertex hit counts once, not once per incident
    edge), so collinear overlap with an edge counts only through that
    edge's vertices. The segment UE->cell depends only on the cell's site,
    so counts are taken once per distinct cell position and shared by its
    co-located cells.

    With `street` and `arc` (the UEs' street, -1 indoors, and arc length;
    ``ue_xy`` must be where :func:`street_points_at` places them), a street
    UE whose arc lies in one of the street's safe intervals
    (``Topology._street_walls``, built at first use) reads its counts from
    that table: they are the per-site test's counts, which are constant
    there. Every other row (indoor UEs, arcs near a wall root, segment
    joints, street ends) goes through the per-site test,
    :func:`_site_wall_counts`.
    """
    n, c = len(ue_xy), topo.n_cells
    if not topo.buildings or n == 0 or c == 0:
        return np.zeros((n, c), dtype=int)
    _, site_of = topo._cell_sites
    if street is None:
        return _site_wall_counts(ue_xy, topo)[:, site_of]
    row = _street_wall_rows(topo, np.asarray(street), np.asarray(arc, dtype=float))
    miss = row < 0
    if miss.all():    # the table may be empty: then no row can index it
        return _site_wall_counts(ue_xy, topo)[:, site_of]
    per_site = topo._street_walls.counts[row].astype(int)
    if miss.any():
        per_site[miss] = _site_wall_counts(ue_xy[miss], topo)
    return per_site[:, site_of]


def _site_wall_counts(ue_xy: np.ndarray, topo: Topology) -> np.ndarray:
    """The per-site wall test: counts (N, sites) for UEs at `ue_xy`, as
    :func:`wall_crossings_to_cells` defines them, taken site by site.

    Per site, only the edges of buildings whose padded box overlaps the
    segment's box are tested; every other building is too far from it to
    count. That box test runs only on the UEs whose direction from the site
    lies in one of the building's angle intervals
    (``Topology._site_sectors``), found by a binary search in the sorted UE
    directions: a segment that touches the box points into its angular
    extent, so no UE that counts is left out. The pair math is exact, so a
    pair these tests keep that cannot cross only costs its arithmetic.
    """
    n = len(ue_xy)
    sites, _ = topo._cell_sites
    per_site = np.empty((n, len(sites)), dtype=int)
    x1, y1, x2, y2 = topo._wall_edges                     # (E,) each
    ex, ey = x2 - x1, y2 - y1
    first, n_edges = topo._wall_ranges                    # (B,), (B,)
    bx0, by0, bx1, by1 = topo._wall_boxes                 # (B,) each
    ux, uy = ue_xy[:, 0], ue_xy[:, 1]
    for k, (cx, cy) in enumerate(sites):
        sdx, sdy = ux - cx, uy - cy                       # (N,) site -> UE
        # (UE, building) candidates: the UE's direction from the site lies
        # in one of the building's angle intervals
        lo, hi, sector_bld = topo._site_sectors[k]
        angle = np.arctan2(sdy, sdx)
        order = np.argsort(angle)
        angle = angle[order]
        start = np.searchsorted(angle, lo)
        count = np.searchsorted(angle, hi, side="right") - start
        bld = np.repeat(sector_bld, count)
        ue = order[np.repeat(start - (np.cumsum(count) - count), count)
                   + np.arange(len(bld))]
        # the segment's box overlaps the padded building box
        x, y = ux[ue], uy[ue]
        hit = ((np.minimum(x, cx) <= bx1[bld]) & (np.maximum(x, cx) >= bx0[bld])
               & (np.minimum(y, cy) <= by1[bld]) & (np.maximum(y, cy) >= by0[bld]))
        ue, bld = ue[hit], bld[hit]
        # expand each (UE, building) pair to the building's edges
        reps = n_edges[bld]
        ue = np.repeat(ue, reps)
        e = np.repeat(first[bld] - (np.cumsum(reps) - reps), reps) + np.arange(len(ue))
        dx, dy = sdx[ue], sdy[ue]                         # (P,) per (UE, edge)
        p1x = x1[e] - cx
        p1y = y1[e] - cy
        p2x = x2[e] - cx
        p2y = y2[e] - cy
        ex_, ey_ = ex[e], ey[e]
        d1 = dx * p1y - dy * p1x
        d2 = dx * p2y - dy * p2x
        d3 = ey_ * p1x - ex_ * p1y                         # site vs edge line
        d4 = dy * ex_ - dx * ey_ + d3                      # UE vs edge line
        proper = (d1 * d2 < 0) & (d3 * d4 < 0)
        # the edge's start vertex on the open segment (d1 is its cross product)
        dot = dx * p1x + dy * p1y
        on_open = (d1 == 0) & (dot > 0) & (dot < dx * dx + dy * dy)
        per_site[:, k] = np.bincount(ue[proper | on_open], minlength=n)
    return per_site


def _point_in_polygon(x: float, y: float, poly) -> bool:
    """Even-odd test of (x, y) against `poly`, a sequence of (x, y) pairs."""
    inside = False
    xj, yj = poly[-1]
    for xi, yi in poly:
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        xj, yj = xi, yi
    return inside


def _polyline_lengths(line: np.ndarray) -> np.ndarray:
    return np.hypot(np.diff(line[:, 0]), np.diff(line[:, 1]))


def street_points_at(topo: Topology, street: np.ndarray,
                     arc: np.ndarray) -> np.ndarray:
    """(P, 2) points at arc lengths `arc` along streets `street`, in one
    array pass over ``Topology._street_table``: each arc is clamped to its
    street's ends and placed on the first segment whose end it does not pass
    (else the last). Placement and mobility both place street UEs here."""
    n, seg, start, pts = topo._street_table
    total = topo.street_lengths[street]
    arc = np.where(arc < 0.0, 0.0, arc)          # max(arc, 0.0)
    arc = np.where(total < arc, total, arc)      # min(arc, total)
    # the first segment i with arc <= start_i + s_i, else the last one
    seg, start = seg[street], start[street]
    before = np.arange(seg.shape[1]) < n[street, None]
    i = np.count_nonzero(before & (arc[:, None] > start + seg), axis=1)
    i = np.minimum(i, n[street] - 1)
    rows = np.arange(len(street))
    s, acc = seg[rows, i], start[rows, i]
    t = np.divide(arc - acc, s, out=np.zeros_like(arc), where=s != 0)
    p0, p1 = pts[street, i], pts[street, i + 1]
    return p0 + t[:, None] * (p1 - p0)


def _build_street_walls(topo: Topology) -> _StreetWalls:
    """Per street, the open arc intervals on which every site's count of
    :func:`_site_wall_counts` is constant, with those counts.

    On a street segment (start arc S, length s, vertices p0, p1) a UE at
    float arc a has the ideal point P(a) = p0 + (a - S) / s * (p1 - p0). The
    wall test's UE-dependent determinants are affine in a at P(a): d1 (UE
    vs the line site->vertex; d2 is the next vertex's d1, bit for bit) and
    d4 (UE vs the edge's line). d3 (site vs the edge's line) is constant.
    Let M be the largest absolute coordinate of the sites, wall vertices and
    street vertices, and u = 2^-53. ``street_points_at`` returns a point
    within 8uM of P(a) per coordinate, so the d1 and d4 the test computes
    there are within 80uM^2 < 2^-46 M^2 of their values at P(a); so are
    their values computed at p0 and p1, which fix the line below.

    An arc is unsafe where, on the line through those vertex values, a
    determinant is within e = 2^-36 M^2 of zero (half-width e/|slope|
    around each root; the whole segment if the determinant is constant
    there), widened by 2^-44 (S + s), above the rounding between arc and
    segment fraction. Elsewhere each determinant at the UE is over e/2 from
    zero and has the sign it has at P(a), which changes only at a root. So
    the test's products keep their signs, no d1 is 0 (the vertex case), the
    count is the exact one, and its pruning, being conservative, cannot
    change it. The gaps between the unsafe intervals of all sites, strictly
    inside a segment and inside [0, street length], are the safe intervals,
    and each one's counts are the test's at its midpoint. An edge with
    d3 = 0 never counts and adds no d4 root. e is at least 2^-510 and a
    d4's at least 2^-1020 / |d3|, so no product of the test underflows to 0.
    """
    sites, _ = topo._cell_sites
    x1, y1, x2, y2 = topo._wall_edges
    n_seg, seg_len, seg_start, pts = topo._street_table
    total = topo.street_lengths
    m = max(np.abs(topo._wall_edges).max(initial=0.0), np.abs(sites).max(initial=0.0),
            np.abs(pts).max(initial=0.0))
    e = max(2.0 ** -36 * m * m, 2.0 ** -510)
    cx, cy = sites[:, 0:1], sites[:, 1:2]                     # (sites, 1)
    p1x, p1y = x1 - cx, y1 - cy                               # (sites, E)
    ex, ey = x2 - x1, y2 - y1
    d3 = ey * p1x - ex * p1y
    line = d3 != 0
    bound = np.concatenate([np.full(d3.size, e),
                            np.maximum(e, 2.0 ** -1020 / np.abs(d3[line]))])

    def dets(px, py):
        """d1 of every (site, vertex), then d4 of every (site, edge) with
        d3 != 0, for a UE at (px, py)."""
        dx, dy = px - cx, py - cy
        return np.concatenate([(dx * p1y - dy * p1x).ravel(),
                               (dy * ex - dx * ey + d3)[line]])

    street, lo, hi = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
    for k in range(len(topo.streets)):
        for i in range(n_seg[k]):
            s, start = seg_len[k, i], seg_start[k, i]
            end = min(start + s, total[k])
            if not start < end:
                continue
            a = dets(*pts[k, i])
            slope = dets(*pts[k, i + 1]) - a
            with np.errstate(divide="ignore", invalid="ignore"):
                t0, t1 = (-bound - a) / slope, (bound - a) / slope
            t_lo, t_hi = np.where(slope > 0, t0, t1), np.where(slope > 0, t1, t0)
            flat = slope == 0
            t_lo[flat] = np.where(np.abs(a[flat]) <= bound[flat], 0.0, np.inf)
            t_hi[flat] = 1.0
            cut = (t_hi >= 0.0) & (t_lo <= 1.0)
            slack = 2.0 ** -44 * (start + s)
            u_lo = start + np.maximum(t_lo[cut], 0.0) * s - slack
            u_hi = start + np.minimum(t_hi[cut], 1.0) * s + slack
            order = np.argsort(u_lo)
            # the gaps of the unsafe intervals' union, within (start, end)
            g_lo = np.maximum(np.concatenate([[start], np.maximum.accumulate(u_hi[order])]),
                              start)
            g_hi = np.minimum(np.concatenate([u_lo[order], [end]]), end)
            keep = g_lo < g_hi
            street.append(np.full(keep.sum(), k))
            lo.append(g_lo[keep])
            hi.append(g_hi[keep])
    street, lo, hi = np.concatenate(street), np.concatenate(lo), np.concatenate(hi)
    mid = (lo + hi) / 2
    inside = (lo < mid) & (mid < hi)
    street, lo, hi, mid = street[inside], lo[inside], hi[inside], mid[inside]
    counts = np.empty((len(mid), len(sites)), dtype=np.min_scalar_type(x1.size))
    for j in range(0, len(mid), 512):    # in chunks: the test's temporaries stay small
        counts[j:j + 512] = _site_wall_counts(
            street_points_at(topo, street[j:j + 512], mid[j:j + 512]), topo)
    offset = np.zeros(len(total))
    offset[1:] = np.cumsum(total + 1.0)[:-1]
    return _StreetWalls(offset, offset[street] + lo, street, lo, hi, counts)


def _street_wall_rows(topo: Topology, street: np.ndarray, arc: np.ndarray) -> np.ndarray:
    """The row of ``Topology._street_walls`` whose open interval holds each
    (street, arc), else -1: one binary search on the (street, arc) key finds
    a candidate, and exact comparisons in arc units confirm it, so a rounded
    key can only send a row to the per-site test."""
    t = topo._street_walls
    if not len(t.key):
        return np.full(len(street), -1)
    j = np.searchsorted(t.key, t.offset[street] + arc, side="right") - 1
    ok = (j >= 0) & (t.street[j] == street) & (t.lo[j] < arc) & (arc < t.hi[j])
    return np.where(ok, j, -1)


@dataclass
class Placement:
    """A street and an arc length along it, or a point indoors."""
    street_index: int = -1                     # -1 indoors
    arc_pos: float = 0.0
    point: tuple[float, float] | None = None   # indoors only


def sample_placement(topo: Topology, rng: np.random.Generator,
                     building_weight: float = 0.5) -> Placement:
    """Draw one UE placement: streets vs buildings with `building_weight`,
    then uniform along aggregate street arc-length, or area-weighted polygon
    choice with rejection sampling inside it.

    Draw order per call is fixed (zone, then location) so placements are a
    pure function of the rng state.
    """
    z = topo._zones
    has_streets = len(z.street_len) > 0
    has_buildings = len(z.polys) > 0
    if not has_streets and not has_buildings:
        raise TopologyError("topology has no placement zones (no streets or buildings)")
    if has_streets and has_buildings:
        indoor = rng.random() < building_weight
    else:
        indoor = has_buildings
    if not indoor:
        target = rng.random() * z.street_total
        idx = min(bisect_right(z.street_cum, target), len(z.street_len) - 1)
        arc = target - (z.street_cum[idx] - z.street_len[idx])
        return Placement(street_index=idx, arc_pos=arc)
    target = rng.random() * z.area_total
    idx = min(bisect_right(z.area_cum, target), len(z.polys) - 1)
    poly = z.polys[idx]
    xmin, ymin, xmax, ymax = z.boxes[idx]
    while True:
        x = xmin + rng.random() * (xmax - xmin)
        y = ymin + rng.random() * (ymax - ymin)
        if _point_in_polygon(x, y, poly):
            return Placement(point=(x, y))


# ---------------------------------------------------------------------------
# Synthetic scenario generator
# ---------------------------------------------------------------------------

# (frequency Hz, bandwidth Hz, priority, tx dBm); the low band is the
# coverage layer, higher bands are capacity layers preferred by the
# hierarchy. Nominal tx powers are calibrated so received levels at
# preset-scale distances straddle the reselection threshold range
# (roughly -45..-65 dBm under free-space loss), with slightly shorter
# reach for higher bands.
BAND_PLAN = [
    (7.0e8, 10e6, 1, 20.0),
    (1.8e9, 20e6, 2, 27.0),
    (2.6e9, 20e6, 3, 28.0),
    (3.5e9, 80e6, 4, 27.0),
]

GENERATOR_PRESETS = {
    # area in meters; bands index into BAND_PLAN, cycled over sector slots.
    # per_tower_bands (desk) instead pins each tower to a band list; tx
    # overrides the band-plan powers band-by-band.
    "desk": dict(towers=2, cells=6, area=(300.0, 220.0),
                 per_tower_bands=[[1], [2]], tx={1: 36.5, 2: 8.0},
                 buildings=8, streets=(3, 2)),
    "baseline": dict(towers=2, cells=15, area=(1720.0, 1370.0), bands=[0, 1, 2],
                     tx={2: 31.0}, buildings=30, streets=(6, 5)),
    "alt": dict(towers=2, cells=15, area=(1720.0, 1370.0), bands=[0, 1, 2],
                tx={2: 31.0}, buildings=30, streets=(6, 5)),
    "large": dict(towers=6, cells=48, area=(2700.0, 2260.0), bands=[0, 1, 2, 3],
                  buildings=60, streets=(8, 7)),
}


def generate_topology(preset: str, seed: int, *,
                      towers: int | None = None, cells: int | None = None,
                      area: tuple[float, float] | None = None,
                      buildings: int | None = None,
                      streets: tuple[int, int] | None = None) -> Topology:
    """Deterministic synthetic scenario for a given (preset, overrides, seed).

    Cells are assigned round-robin over (band, sector azimuth, tower)
    unless the preset pins per-tower band lists; the band plan fixes
    frequency, bandwidth, priority, and tx power per band. The scenario is
    built as a ``.topo`` document and read as :func:`load_topology` reads
    a file, so what ``gen-topology`` writes always loads.
    """
    if preset not in GENERATOR_PRESETS:
        raise TopologyError(f"unknown preset '{preset}'")
    overrides = dict(towers=towers, cells=cells, area=area,
                     buildings=buildings, streets=streets)
    params = {**GENERATOR_PRESETS[preset],
              **{k: v for k, v in overrides.items() if v is not None}}
    if params["towers"] < 1 or params["cells"] < 1:
        raise TopologyError("generator: towers and cells must be >= 1")
    for key, counts in (("buildings", [params["buildings"]]),
                        ("streets", params["streets"])):
        if min(counts) < 0:
            raise TopologyError(f"generator: {key} must be >= 0, got {params[key]}")
    w, h = params["area"]
    if w <= 0 or h <= 0:
        raise TopologyError("generator: area must be positive")

    rng = np.random.default_rng(seed)
    n_towers = params["towers"]
    grid = math.ceil(math.sqrt(n_towers))
    tower_list = []
    for k in range(n_towers):
        if n_towers == 2:   # the two-tower study layout: thirds of the width, mid-height
            cx = (k + 1) / 3.0 * w + (rng.random() - 0.5) * 0.06 * w
            cy = 0.5 * h + (rng.random() - 0.5) * 0.06 * h
        else:               # a square grid, filled row by row
            gy, gx = divmod(k, grid)
            cx = (gx + 0.5) / grid * w + (rng.random() - 0.5) * 0.3 * w / grid
            cy = (gy + 0.5) / grid * h + (rng.random() - 0.5) * 0.3 * h / grid
        tower_list.append({"id": f"T{k + 1}", "x": round(cx, 1), "y": round(cy, 1)})

    n_cells = params["cells"]
    offsets = [float(rng.integers(0, 120)) for _ in range(n_towers)]
    slots = []
    if "per_tower_bands" in params:
        for t_i, band_list in enumerate(params["per_tower_bands"]):
            for b in band_list:
                for s_i in range(3):
                    slots.append((t_i, s_i, b))
    else:
        band_cycle = params["bands"]
        b_i = t_i = s_i = 0
        while len(slots) < n_cells:
            slots.append((t_i % n_towers, s_i % 3, band_cycle[b_i % len(band_cycle)]))
            t_i += 1
            if t_i % n_towers == 0:
                s_i += 1
                if s_i % 3 == 0:
                    b_i += 1
    if len(slots) < n_cells:
        raise TopologyError("generator: per_tower_bands yields fewer slots than cells")
    cell_list = []
    for slot, (t_i, s_i, b_i) in enumerate(slots[:n_cells]):
        freq, bw_, pr, tx = BAND_PLAN[b_i]
        cell_list.append({
            "id": f"C{slot + 1:02d}",
            "tower": tower_list[t_i]["id"],
            "azimuth_deg": (offsets[t_i] + 120.0 * s_i) % 360.0,
            "beamwidth_deg": DEFAULT_BEAMWIDTH_DEG,
            "frequency_hz": freq,
            "bandwidth_hz": bw_,
            "priority": pr,
            "tx_power_dbm": params.get("tx", {}).get(b_i, tx),
        })

    # street grid: full-span horizontal and vertical polylines
    nx, ny = params["streets"]
    street_list = []
    for i in range(ny):
        y = (i + 0.5) / ny * h
        street_list.append([[0.0, y], [w, y]])
    for i in range(nx):
        x = (i + 0.5) / nx * w
        street_list.append([[x, 0.0], [x, h]])

    # rectangular buildings scattered between streets
    building_list = []
    for _ in range(params["buildings"]):
        bw_ = 20.0 + rng.random() * 40.0
        bh_ = 20.0 + rng.random() * 40.0
        x0 = rng.random() * (w - bw_)
        y0 = rng.random() * (h - bh_)
        building_list.append([[x0, y0], [x0 + bw_, y0], [x0 + bw_, y0 + bh_], [x0, y0 + bh_]])

    return _topology_from_doc({
        "format": TOPOLOGY_FORMAT, "version": TOPOLOGY_VERSION,
        "area_bounds": [0.0, 0.0, w, h], "towers": tower_list, "cells": cell_list,
        "buildings": building_list, "streets": street_list,
    }, "generator")
