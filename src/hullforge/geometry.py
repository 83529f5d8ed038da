"""Parametric hull surface and draft-indexed geometric measures.

The hull is described by an overall length ``loa`` (meters) plus 13
dimensionless shape parameters.  All geometry below works in fractions of
LOA: ``x`` runs from 0 at the stern to 1 at the bow, heights are measured
up from the keel, and ``zeta`` is height as a fraction of the depth.

Surface recipe (separable):

* raked profile        X_aft(zeta) = r_s (1 - zeta),  X_fwd(zeta) = 1 - r_b (1 - zeta)
* waterplane factor    W = min(1, ((x - X_aft)/x_r)^(1/p_r), ((X_fwd - x)/x_e)^(1/p_e))
* section factor       S = min(1, (zeta/k_b)^(1/p_s))          (S == 1 when k_b == 0)
* half-breadth         y(x, zeta) = (b/2) W S, zero outside the profile
* optional bow bulb: an ellipsoid of semi-length l_u and radius rho_u
  centred on the centreline at height z_u, protruding forward of the local
  bow profile.  The centre is pulled aft to 1 - l_u if needed so the hull
  never exceeds unit length, and the surface is max(hull, bulb) so it
  stays single-valued.

``run_frac = 0`` / ``entrance_frac = 0`` are accepted as degenerate
"no taper" limits (vertical transom / stem).  They sit outside the
sampling box and exist so closed-form prism hulls are exactly
representable for verification.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import LOA_RANGE
from .errors import DomainError, FeasibilityError, RepresentationError

SHAPE_NAMES = (
    "beam_ratio",        # b   = BOA / LOA
    "depth_ratio",       # d   = D / LOA
    "run_frac",          # x_r length of the aft taper
    "entrance_frac",     # x_e length of the forward taper
    "run_fullness",      # p_r
    "entrance_fullness", # p_e
    "section_fullness",  # p_s
    "deadrise_frac",     # k_b height (fraction of depth) where sections reach full beam
    "bow_rake",          # r_b
    "stern_rake",        # r_s
    "bulb_len",          # l_u semi-length of the bow bulb (fraction of LOA)
    "bulb_radius",       # rho_u
    "bulb_height",       # z_u  centre height of the bulb (fraction of LOA)
)
N_SHAPE = len(SHAPE_NAMES)

BOX_BOUNDS = {
    "beam_ratio": (0.02, 0.5),
    "depth_ratio": (0.02, 0.3),
    "run_frac": (0.05, 0.6),
    "entrance_frac": (0.05, 0.6),
    "run_fullness": (0.5, 4.0),
    "entrance_fullness": (0.5, 4.0),
    "section_fullness": (0.5, 6.0),
    "deadrise_frac": (0.0, 0.5),
    "bow_rake": (0.0, 0.3),
    "stern_rake": (0.0, 0.3),
    "bulb_len": (0.0, 0.08),
    "bulb_radius": (0.0, 0.15),
    "bulb_height": (0.0, 0.15),
}

# 100 evenly spaced draft marks in (0, 1].
DRAFT_MARKS = np.linspace(0.01, 1.0, 100)

# Default section-integration resolution (z-stations per draft mark, x-stations).
MEASURE_NZ = 200
MEASURE_NX = 256
SUBSTATIONS = 20    # measure_curves height stations per draft-mark band
BULB_X_NODES = 33   # extra measure_curves x-stations across a bow bulb
# Half-breadth cells per row block of the measure integrators: a working set
# of a few hundred kB per array, with measure_at's default grid and the volume
# constraint's volume_at (160 x 192) still one block.
MEASURE_BLOCK_CELLS = MEASURE_NZ * MEASURE_NX


@dataclass(frozen=True)
class HullParams:
    """Length overall plus the 13 shape parameters, in SHAPE_NAMES order."""

    loa: float
    shape: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.shape, dtype=float)
        if arr.shape != (N_SHAPE,):
            raise RepresentationError(
                f"shape vector must have {N_SHAPE} entries, got {arr.shape}")
        if not np.all(np.isfinite(arr)) or not np.isfinite(self.loa):
            raise RepresentationError("hull parameters must be finite")
        object.__setattr__(self, "shape", arr)

    def __getattr__(self, name):
        # guard first: unpickling probes attributes before `shape` exists
        if name not in SHAPE_NAMES:
            raise AttributeError(name)
        return self.shape[SHAPE_NAMES.index(name)]


@dataclass(frozen=True)
class FeasibilityReport:
    """Signed residuals for every constraint; positive residual = violated."""

    feasible: bool
    violations: tuple          # ((constraint id, residual > 0), ...)
    residuals: dict            # constraint id -> signed residual


@dataclass(frozen=True)
class GeoCurves:
    """Normalized volume / wetted area / waterline length at the DRAFT_MARKS.

    vol is normalized by LOA^3, area by LOA^2, wl by LOA; all are therefore
    independent of the hull's actual length.
    """

    vol: np.ndarray
    area: np.ndarray
    wl: np.ndarray


@dataclass(frozen=True)
class SlopeField:
    """Longitudinal slope dy/dx sampled over the submerged centerplane.

    x and z are node coordinates in meters (z <= 0, measured down from the
    waterline); dydx is indexed [x, z] and is dimensionless.
    """

    x: np.ndarray
    z: np.ndarray
    dydx: np.ndarray


def validate(params: HullParams) -> FeasibilityReport:
    """Evaluate all box and composite constraints.

    Residuals are continuous in the parameters (the bulb tie residual is
    continuous everywhere except across the ``exactly one of l_u, rho_u is
    zero`` axis, which is the constraint's own boundary).
    """
    s = params.shape
    residuals = {}
    lo, hi = LOA_RANGE
    residuals["loa"] = max(lo - params.loa, params.loa - hi)
    for i, name in enumerate(SHAPE_NAMES):
        blo, bhi = BOX_BOUNDS[name]
        residuals[name] = max(blo - s[i], s[i] - bhi)
    residuals["taper_overlap"] = params.entrance_frac + params.run_frac - 0.95
    residuals["rake_sum"] = params.bow_rake + params.stern_rake - 0.9
    residuals["bulb_clearance"] = params.bulb_height + params.bulb_radius - params.depth_ratio
    l_u, rho_u = params.bulb_len, params.bulb_radius
    residuals["bulb_tie"] = max(l_u, rho_u) if min(l_u, rho_u) == 0.0 else 0.0

    violations = tuple((k, v) for k, v in residuals.items() if v > 0)
    return FeasibilityReport(feasible=not violations, violations=violations,
                             residuals=residuals)


def require_evaluable(params: HullParams) -> None:
    """Raise FeasibilityError unless the surface formulas are well defined.

    This is validate() with the lower box bounds of the taper lengths
    relaxed to zero, so degenerate prism limits stay usable by the
    measurement oracles while every other violation is rejected.
    """
    report = validate(params)
    if report.feasible:
        return
    bad = []
    for name, res in report.violations:
        if name in ("run_frac", "entrance_frac") and 0.0 <= getattr(params, name):
            continue
        if name == "loa" and params.loa > 0.0:
            # geometry is scale-free; the loa box is a sampling range, and
            # resistance grids are evaluated at a reference LOA of 1 m
            continue
        bad.append((name, res))
    if bad:
        raise FeasibilityError(f"infeasible hull parameters: {bad}")


def _bulb_center(params) -> float:
    zeta_u = params.bulb_height / params.depth_ratio
    local_bow = 1.0 - params.bow_rake * (1.0 - zeta_u)
    return min(local_bow, 1.0 - params.bulb_len)


def _half_breadth_grid(params: HullParams, x, zeta):
    """Vectorized y(x, zeta) over broadcastable arrays, in fractions of LOA."""
    s = params
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    one_minus = 1.0 - zeta
    x_aft = s.stern_rake * one_minus
    x_fwd = 1.0 - s.bow_rake * one_minus
    inside = (x >= x_aft) & (x <= x_fwd)

    if s.run_frac > 0.0:
        w_run = np.clip((x - x_aft) / s.run_frac, 0.0, 1.0) ** (1.0 / s.run_fullness)
    else:
        w_run = np.ones(np.broadcast(x, zeta).shape)
    if s.entrance_frac > 0.0:
        w_ent = np.clip((x_fwd - x) / s.entrance_frac, 0.0, 1.0) ** (1.0 / s.entrance_fullness)
    else:
        w_ent = np.ones(np.broadcast(x, zeta).shape)
    w = np.minimum(w_run, w_ent)
    del w_run, w_ent            # full-grid arrays: keep the peak memory down

    if s.deadrise_frac > 0.0:
        # clip before dividing: zeta / d overflows for a subnormal d
        d = s.deadrise_frac
        sec = (np.clip(zeta, 0.0, d) / d) ** (1.0 / s.section_fullness)
    else:
        sec = np.ones_like(zeta)

    y = 0.5 * s.beam_ratio * w * sec * inside

    if s.bulb_len > 0.0:
        xc = _bulb_center(s)
        dx = (x - xc) / s.bulb_len
        dz = (zeta * s.depth_ratio - s.bulb_height) / s.bulb_radius
        rad = 1.0 - dx * dx - dz * dz
        y = np.maximum(y, s.bulb_radius * np.sqrt(np.clip(rad, 0.0, None)))
    return y


def half_breadth(params: HullParams, x, zeta):
    """Hull half-breadth (fraction of LOA) at longitudinal fraction ``x``
    and height fraction ``zeta``; zero outside the raked profile."""
    require_evaluable(params)
    out = _half_breadth_grid(params, x, zeta)
    if np.isscalar(x) and np.isscalar(zeta):
        return float(out)
    return out


def waterline_bounds(params: HullParams, tstar: float) -> tuple:
    """(X_aft, X_fwd) of the waterline at draft ratio tstar, LOA fractions."""
    x_aft = params.stern_rake * (1.0 - tstar)
    x_fwd = 1.0 - params.bow_rake * (1.0 - tstar)
    return x_aft, x_fwd


def _shell_band_areas(y, dx, dz):
    """Mesh area of the hull shell per height band, both sides combined.

    The sampled surface is triangulated and summed per z band; chordal
    areas stay accurate (and refine monotonically) even where the analytic
    slope blows up at the keel or the profile ends.  Quads whose corners
    all sit on the centerplane are not hull surface and are skipped.

    y is (nz, nx).  dx is the x spacing, a scalar or an (nx-1,) row; dz is
    the (nz-1, 1) column of height spacings in LOA units.
    Returns an (nz-1,) array of band areas.
    """
    flat = (dx * dz) ** 2

    def triangles(p, q):
        # |p dz, dx dz, q dx|: the cross product of a triangle with edge
        # rises p along x and q along z, computed in place in p and q
        p *= p
        p *= dz
        p *= dz
        p += flat
        q *= q
        q *= dx
        q *= dx
        p += q
        return np.sqrt(p, out=p)

    # cross products written out for the structured grid: triangle pairs
    # anchored at the lower-left and upper-right corners of each quad
    tri = triangles(y[:-1, 1:] - y[:-1, :-1], y[1:, :-1] - y[:-1, :-1])
    tri += triangles(y[1:, :-1] - y[1:, 1:], y[:-1, 1:] - y[1:, 1:])
    hull = (y[:-1, :-1] > 0) | (y[:-1, 1:] > 0) | (y[1:, :-1] > 0) | (y[1:, 1:] > 0)
    return (tri * hull).sum(axis=1)


def _waterline_length(params, tstar):
    """WL, LOA-normalized, at draft ratio ``tstar``; array-capable."""
    return 1.0 - (params.bow_rake + params.stern_rake) * (1.0 - tstar)


def _cumulative_volume(params, width, dz):
    """V below each height station but the keel, LOA-normalized: trapezoid
    bands of the per-station waterplane half-areas ``width`` (nz,), ``dz``
    the (nz-1,) height spacings."""
    return 2.0 * params.depth_ratio * np.cumsum(0.5 * (width[1:] + width[:-1]) * dz)


def _station_blocks(params, x, zeta):
    """(rows, y) for row blocks of the hull over the (1, nx) x row and the
    (nz, 1) height column ``zeta``: y holds the half-breadths of the stations
    ``rows``, at most MEASURE_BLOCK_CELLS of them, and each block repeats
    the last row of the one before, so every height band lies in one block.
    Every row is computed as it would be in one full grid."""
    nz = zeta.shape[0]
    step = max(2, MEASURE_BLOCK_CELLS // x.shape[1]) - 1
    for lo in range(0, max(nz - 1, 1), step):
        rows = slice(lo, min(lo + step + 1, nz))
        yield rows, _half_breadth_grid(params, x, zeta[rows])


def _cumulative_measures(params, x, dx, zeta):
    """(V, SA) below each height station but the keel, LOA-normalized.

    x is a (1, nx) row of x-stations and dx their spacing, a scalar or an
    (nx-1,) row; zeta is an (nz, 1) column of height stations, fractions
    of the depth, from the keel up.  Volume sums trapezoid bands of the
    waterplane area; wetted area sums the shell bands, then adds the
    submerged end caps and the flat bottom.  The grid is integrated in the
    row blocks of _station_blocks, which collect the per-station widths,
    per-band shell areas and end-cap half-breadths; the cumulative sums run
    once over those, so the values do not depend on the blocking.  Returns
    two (nz-1,) arrays.
    """
    s = params
    d = s.depth_ratio
    dz = np.diff(zeta[:, 0])
    # vertical end caps appear only in the degenerate no-taper, no-rake limits
    caps = []
    if s.run_frac == 0.0 and s.stern_rake == 0.0:
        caps.append(0)
    if s.entrance_frac == 0.0 and s.bow_rake == 0.0:
        caps.append(-1)
    width = np.empty(dz.size + 1)
    bands = np.empty(dz.size)
    ends = np.empty(dz.size + 1)
    for rows, y in _station_blocks(s, x, zeta):
        width[rows] = np.trapezoid(y, x[0], axis=1)     # waterplane half-areas
        below = slice(rows.start, rows.stop - 1)
        bands[below] = _shell_band_areas(y, dx, d * dz[below, None])
        if caps:
            ends[rows] = sum(y[:, c] for c in caps)

    vol = _cumulative_volume(s, width, dz)
    area = np.cumsum(bands)
    if caps:
        area += 2.0 * d * np.cumsum(0.5 * (ends[1:] + ends[:-1]) * dz)
    # flat bottom closes the hull when sections carry beam at the keel
    area += 2.0 * width[0]
    return vol, area


def _draft_stations(params, tstar, nz, nx):
    """The even grid of the hull submerged to draft ratio ``tstar``: the
    (1, nx) x row, its spacing and the (nz, 1) height column."""
    require_evaluable(params)
    if not 0.0 < tstar <= 1.0:
        raise DomainError(f"draft ratio must be in (0, 1], got {tstar}")
    x = np.linspace(0.0, 1.0, nx)
    return x[None, :], x[1] - x[0], np.linspace(0.0, tstar, nz)[:, None]


def measure_at(params: HullParams, tstar: float, *, nz: int = MEASURE_NZ,
               nx: int = MEASURE_NX) -> tuple:
    """(V, SA, WL), LOA-normalized, at one draft ratio in (0, 1], on an
    even ``nz`` x ``nx`` grid of the submerged hull."""
    vol, area = _cumulative_measures(params, *_draft_stations(params, tstar, nz, nx))
    return vol[-1], area[-1], _waterline_length(params, tstar)


def volume_at(params: HullParams, tstar: float, *, nz: int, nx: int) -> float:
    """measure_at's V alone, bit for bit, without the shell area."""
    x, _dx, zeta = _draft_stations(params, tstar, nz, nx)
    width = np.empty(nz)
    for rows, y in _station_blocks(params, x, zeta):
        width[rows] = np.trapezoid(y, x[0], axis=1)
    return _cumulative_volume(params, width, np.diff(zeta[:, 0]))[-1]


def measure_curves(params: HullParams) -> GeoCurves:
    """Integrate sections at the 100 draft marks.

    Volume is normalized by LOA^3, wetted area by LOA^2 (bottom, sides and
    submerged transom end caps; nothing above the waterline), waterline
    length by LOA.

    All marks share one global height grid (SUBSTATIONS trapezoid
    stations per mark band, nodes placed exactly on the marks) and the
    per-mark values are cumulative sums of the band integrals.  Band
    contributions are non-negative, so volume and area are non-decreasing
    across marks by construction.

    Two places get denser stations, where even spacing misses the
    first-mark volume by more than 1%: the first band is graded
    quadratically toward the keel, where the section factor
    (zeta / deadrise)^(1 / section_fullness) has an infinite slope, and
    BULB_X_NODES x-stations span a bow bulb, which can be shorter than
    two even x-steps.

    The 2001 x 256 station grid (about 33 more columns with a bulb) is
    never held whole: it is integrated in row blocks of at most
    MEASURE_BLOCK_CELLS half-breadths, about 200 rows, each overlapping the
    one before by a row, and the values are those of one whole-grid pass,
    bit for bit.
    """
    require_evaluable(params)
    s = params
    zeta = np.linspace(0.0, 1.0, DRAFT_MARKS.size * SUBSTATIONS + 1)
    zeta[:SUBSTATIONS] = zeta[SUBSTATIONS] * (np.arange(SUBSTATIONS) / SUBSTATIONS) ** 2
    x = np.linspace(0.0, 1.0, MEASURE_NX)
    dx = x[1] - x[0]
    if s.bulb_len > 0.0:
        xc = _bulb_center(s)
        x = np.union1d(x, np.linspace(xc - s.bulb_len, xc + s.bulb_len, BULB_X_NODES))
        dx = np.diff(x)
    vol, area = _cumulative_measures(s, x[None, :], dx, zeta[:, None])
    # every SUBSTATIONS-th station is a mark; copies let the station sums go
    marks = slice(SUBSTATIONS - 1, None, SUBSTATIONS)
    return GeoCurves(vol[marks].copy(), area[marks].copy(),
                     _waterline_length(s, DRAFT_MARKS))


def centerplane_slopes(params: HullParams, tstar: float, nx: int, nz: int) -> SlopeField:
    """Central-difference dy/dx on a uniform grid over the submerged
    centerplane, with node coordinates in meters for this hull's LOA.

    z runs from -draft to 0 (waterline).  The x extent covers the waterline
    between the raked profile endpoints, widened if a bow bulb protrudes
    past the local stem.
    """
    require_evaluable(params)
    if not 0.0 < tstar <= 1.0:
        raise DomainError(f"draft ratio must be in (0, 1], got {tstar}")
    if nx < 8 or nz < 8:
        raise DomainError("slope grids need nx, nz >= 8")
    s = params
    x_aft, x_fwd = waterline_bounds(s, tstar)
    if s.bulb_len > 0.0:
        x_fwd = max(x_fwd, _bulb_center(s) + s.bulb_len)
    loa = s.loa
    draft_m = tstar * s.depth_ratio * loa
    x_m = np.linspace(x_aft, x_fwd, nx) * loa
    z_m = np.linspace(-draft_m, 0.0, nz)
    zeta = (z_m / loa + tstar * s.depth_ratio) / s.depth_ratio
    y_m = loa * _half_breadth_grid(s, (x_m / loa)[:, None], zeta[None, :])
    dydx = np.gradient(y_m, x_m, axis=0)
    return SlopeField(x=x_m, z=z_m, dydx=dydx)


# ---------------------------------------------------------------------------
# CSV tables: hull files lead each row with loa and the 13 shape parameters.

HULL_FIELDS = ("loa",) + SHAPE_NAMES


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row; float cells are written with
    ``repr``, so they read back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_hull_csv(path, loa, shapes, **extra) -> None:
    """One row per hull: its LOA (one ``loa`` serves every row), the (n, 13)
    ``shapes`` row, then the named (n,) ``extra`` columns."""
    if np.shape(shapes)[1:] != (N_SHAPE,):
        raise RepresentationError(f"hull rows need {N_SHAPE} shape parameters, "
                                  f"got shapes of shape {np.shape(shapes)}")
    write_csv(path, HULL_FIELDS + tuple(extra),
              np.column_stack([np.broadcast_to(loa, len(shapes)), shapes,
                               *extra.values()]))


def write_flagged_csv(path, header, flags, values, lead=None) -> None:
    """A table on HullTable's and AuditTable's convention: each row's
    ``lead`` cells, if given, then its flag, then under a set flag the next
    row of ``values`` and under a clear one blanks."""
    rows = iter(values)
    blank = [""] * values.shape[1]
    write_csv(path, header,
              ([*cells, 1, *next(rows)] if flag else [*cells, 0, *blank]
               for cells, flag in zip(repeat(()) if lead is None else lead, flags)))


def read_hull_rows(path, header, parse_tail) -> tuple:
    """(loa, shapes, tails) of the CSV file ``path`` with the columns
    ``header``, which start with HULL_FIELDS: the (n,) LOA and (n, 13) shape
    arrays, whose cells must be finite floats, and ``parse_tail`` of each
    row's cells after them.  A malformed row, or a ValueError of
    ``parse_tail``, raises RepresentationError naming the file and the line."""
    nh = len(HULL_FIELDS)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise RepresentationError(f"unexpected hull CSV header in {path}")
        hulls, tails = [], []
        try:
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, expected {len(header)}")
                hull = [float(v) for v in row[:nh]]
                if not all(map(math.isfinite, hull)):
                    raise ValueError("non-finite hull parameter")
                tails.append(parse_tail(row[nh:]))
                hulls.append(hull)
        except ValueError as exc:
            raise RepresentationError(
                f"bad hull row on line {reader.line_num} ({exc}): {path}") from None
    hulls = np.array(hulls).reshape(-1, nh)
    return hulls[:, 0], hulls[:, 1:], tails


def read_hull_csv(path, *extra) -> tuple:
    """(loa, shapes, *columns) of a file write_hull_csv wrote with the
    ``extra`` columns named here, each column an (n,) array."""
    loa, shapes, tails = read_hull_rows(path, HULL_FIELDS + extra,
                                        lambda cells: [float(v) for v in cells])
    return (loa, shapes, *np.array(tails).reshape(loa.size, len(extra)).T)
