"""Hull dataset construction, quantile normalization, training rows.

A dataset holds n feasible hulls (with geometry curves and wave-resistance
grids) plus n constraint-violating bare design vectors for classifier
training, as one array table.  Everything is a pure function of (n, seed,
scheme constants): hulls are generated from per-index child seeds, so
worker count and scheduling cannot change the result.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import (COND_TSTAR_RANGE, FROUDE_RANGE, GRID_DRAFTS, GRID_FROUDE,
                     LOA_RANGE, LOG10_LOA_RANGE, PLANE_NX, PLANE_NZ, THETA_NODES,
                     TSTAR_RANGE)
from .errors import DomainError, GenerationError, RepresentationError
from .geometry import (BOX_BOUNDS, DRAFT_MARKS, HULL_FIELDS, SHAPE_NAMES,
                       HullParams, measure_curves, read_hull_rows, validate,
                       write_flagged_csv)
from .hydro import (GRID_COLUMNS, FlowCondition, froude_speed, grid_lookup,
                    predicted_total_resistance, resistance_coefficient,
                    resistance_grid, skin_friction)

BULB_PROBABILITY = 0.25
REJECTION_BUDGET = 1000
WL_FLOOR = 0.05   # waterline-prediction floor keeps the Froude number finite

_LO = np.array([BOX_BOUNDS[n][0] for n in SHAPE_NAMES])
_HI = np.array([BOX_BOUNDS[n][1] for n in SHAPE_NAMES])
_BULB_IDX = [SHAPE_NAMES.index(n) for n in ("bulb_len", "bulb_radius", "bulb_height")]


@dataclass(frozen=True)
class HullTable:
    """The dataset as arrays, one row per hull in file order.

    ``loa``, ``shapes`` and ``feasible`` cover every row; the curves (at the
    DRAFT_MARKS) and grids cover the feasible rows only, in row order.
    """

    loa: np.ndarray         # (n,)
    shapes: np.ndarray      # (n, 13) raw
    feasible: np.ndarray    # (n,) bool
    vols: np.ndarray        # (n_feasible, 100)
    areas: np.ndarray       # (n_feasible, 100)
    wls: np.ndarray         # (n_feasible, 100)
    rws: np.ndarray         # (n_feasible, 4, 7) at LOA = 1 m


def _random_loa(rng) -> float:
    lo, hi = np.log10(LOA_RANGE[0]), np.log10(LOA_RANGE[1])
    return float(10.0 ** rng.uniform(lo, hi))


def sample_random_hull(rng: np.random.Generator) -> HullParams:
    """Uniform draw inside the parameter box, rejected until the composite
    constraints pass.

    The bulb arm is decided first (probability BULB_PROBABILITY) and
    rejection happens within the arm, so the bulb share is preserved
    exactly.  Bulbless hulls carry zeros for all three bulb parameters.
    """
    with_bulb = rng.random() < BULB_PROBABILITY
    for _ in range(REJECTION_BUDGET):
        shape = rng.uniform(_LO, _HI)
        if not with_bulb:
            shape[_BULB_IDX] = 0.0
        elif shape[_BULB_IDX[0]] == 0.0 or shape[_BULB_IDX[1]] == 0.0:
            continue  # the tie constraint wants both strictly positive
        params = HullParams(_random_loa(rng), shape)
        if validate(params).feasible:
            return params
    raise GenerationError(f"no feasible hull in {REJECTION_BUDGET} draws")


def sample_infeasible_vector(rng: np.random.Generator) -> HullParams:
    """A design vector violating at least one composite constraint.

    One of the four composites is chosen and inverted on top of an
    otherwise ordinary box sample, keeping the vector near the feasibility
    boundary.  Inverting the rake-sum composite necessarily pushes the rakes
    past their box range (the sum cannot exceed 0.9 inside it).
    """
    kind = int(rng.integers(4))
    shape = rng.uniform(_LO, _HI)
    shape[_BULB_IDX] = 0.0
    i = SHAPE_NAMES.index
    if kind == 0:      # taper overlap: x_e + x_r > 0.95
        total = rng.uniform(0.96, 1.2)
        split = rng.uniform(0.4, 0.6)
        shape[i("run_frac")] = total * split
        shape[i("entrance_frac")] = total * (1.0 - split)
    elif kind == 1:    # rake sum > 0.9
        total = rng.uniform(0.91, 1.1)
        split = rng.uniform(0.3, 0.7)
        shape[i("bow_rake")] = total * split
        shape[i("stern_rake")] = total * (1.0 - split)
    elif kind == 2:    # bulb sticks out above the deck: z_u + rho_u > d
        d = shape[i("depth_ratio")]
        shape[i("bulb_radius")] = rng.uniform(0.5 * d, 0.15 + 0.5 * d)
        shape[i("bulb_height")] = rng.uniform(0.6 * d, 1.2 * d)
        shape[i("bulb_len")] = rng.uniform(0.01, 0.08)
        if shape[i("bulb_height")] + shape[i("bulb_radius")] <= d:
            shape[i("bulb_height")] = d  # force the violation
    else:              # bulb tie: length without radius
        shape[i("bulb_len")] = rng.uniform(0.01, 0.08)
        shape[i("bulb_radius")] = 0.0
    params = HullParams(_random_loa(rng), shape)
    if validate(params).feasible:   # cannot happen; guards future schemes
        raise GenerationError("constraint inversion produced a feasible vector")
    return params


def _set_blas_threads(n: int) -> int | None:
    """Set the loaded OpenBLAS to ``n`` threads; its previous count.

    The library is found in /proc/self/maps; without one (or off Linux)
    nothing changes and the result is None.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            get = getattr(lib, stem.format("get_num_threads"), None)
            put = getattr(lib, stem.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(n)
                return before
    return None


def pool_map(fn, jobs: list, workers: int = 0, *, threads: bool = False) -> list:
    """``[fn(job) for job in jobs]``, in order, on ``workers`` workers
    (``0``: one per CPU; never more than there are jobs).

    With one worker the jobs run in this process, one after another, at the
    BLAS library's own thread count.  Otherwise they run in a pool of
    processes or, with ``threads``, of threads of this process; either way
    every worker runs one BLAS thread, so a pool as wide as the machine
    does not oversubscribe its cores.  Threads suit jobs that spend their
    time in numpy, which releases the GIL: they share this process's
    memory and names, so their inputs are not copied.  The first job in
    list order that raises cancels the jobs not yet started; its error
    propagates once the running ones have ended, so no worker outlives the
    call.
    """
    size = min(workers or os.cpu_count() or 1, len(jobs))
    if size <= 1:
        return [fn(job) for job in jobs]
    if not threads:
        with ProcessPoolExecutor(size, initializer=_set_blas_threads,
                                 initargs=(1,)) as pool:
            return list(pool.map(fn, jobs))
    before = _set_blas_threads(1)   # the count is per process, not per thread
    try:
        with ThreadPoolExecutor(size) as pool:
            return list(pool.map(fn, jobs))
    finally:
        if before is not None:
            _set_blas_threads(before)


def _build_one(args):
    seed, n_theta, nx, nz = args
    rng = np.random.default_rng(seed)
    params = sample_random_hull(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the grid first: its Michell chunks are a hull's largest temporaries,
        # so a fresh worker's heap grows once to hold them, and the measure
        # blocks then fit in it instead of growing and trimming it per block
        grid = resistance_grid(params, n_theta=n_theta, nx=nx, nz=nz)
        curves = measure_curves(params)
    return params, curves, grid


def build_dataset(n: int, seed: int, *, n_theta: int = THETA_NODES,
                  nx: int = PLANE_NX, nz: int = PLANE_NZ,
                  workers: int = 0) -> HullTable:
    """n feasible hulls (curves + grids) followed by n infeasible vectors.

    The feasible hulls are built through :func:`pool_map` with ``workers``
    processes (``0``: one per CPU, ``1``: in this process).
    """
    if n < 1:
        raise DomainError("dataset size must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(n + 1)
    built = pool_map(_build_one, [(s, n_theta, nx, nz) for s in seeds[:n]], workers)
    bad_rng = np.random.default_rng(seeds[n])
    hulls = [p for p, _, _ in built] + [sample_infeasible_vector(bad_rng)
                                        for _ in range(n)]
    return HullTable(
        loa=np.array([h.loa for h in hulls]),
        shapes=np.array([h.shape for h in hulls]),
        feasible=np.arange(2 * n) < n,
        vols=np.array([c.vol for _, c, _ in built]),
        areas=np.array([c.area for _, c, _ in built]),
        wls=np.array([c.wl for _, c, _ in built]),
        rws=np.array([rw for _, _, rw in built]),
    )


# ---------------------------------------------------------------------------
# Quantile normalizer


@dataclass(frozen=True)
class Normalizer:
    """Per-parameter empirical quantile maps onto [-1, 1].

    ``knots_x[i]`` holds the sorted sample for parameter i, ``knots_u[i]``
    the matching uniform grid; tied sample values share their mid-rank so
    the forward map is single-valued.  Out-of-range raw values clamp to the
    interval ends.
    """

    knots_x: tuple          # per parameter: ascending raw knots
    knots_u: tuple          # per parameter: ascending [-1, 1] knots (forward map)
    inv_x: tuple            # per parameter: raw values for the inverse map
    inv_u: tuple            # per parameter: strictly increasing [-1, 1] grid
    identity: tuple         # parameter indices left untouched (zero variance)

    @property
    def dim(self) -> int:
        return len(self.knots_x)

    def normalize(self, raw):
        raw = np.asarray(raw, dtype=float)
        out = np.empty_like(raw)
        for i in range(self.dim):
            col = raw[..., i]
            if i in self.identity:
                out[..., i] = col
            else:
                out[..., i] = np.interp(col, self.knots_x[i], self.knots_u[i])
        return out

    def denormalize(self, unit):
        unit = np.asarray(unit, dtype=float)
        out = np.empty_like(unit)
        for i in range(self.dim):
            col = np.clip(unit[..., i], -1.0, 1.0)
            if i in self.identity:
                out[..., i] = col
            else:
                out[..., i] = np.interp(col, self.inv_u[i], self.inv_x[i])
        return out


def fit_normalizer(mat, *, min_samples: int = 64) -> Normalizer:
    """Fit per-parameter quantile maps from a raw (n, dim) sample.

    Parameters with zero variance get an identity map and a warning.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < min_samples:
        raise DomainError(f"normalizer needs >= {min_samples} feasible samples")
    n, dim = mat.shape
    u_grid = np.linspace(-1.0, 1.0, n)

    knots_x, knots_u, inv_x, inv_u, identity = [], [], [], [], []
    for i in range(dim):
        xs = np.sort(mat[:, i])
        if xs[0] == xs[-1]:
            warnings.warn(f"parameter {i} has zero variance; identity mapping used")
            identity.append(i)
            knots_x.append(xs[:1])
            knots_u.append(np.zeros(1))
            inv_x.append(xs[:1])
            inv_u.append(np.zeros(1))
            continue
        # forward map: collapse tied values onto their mid-rank
        uniq, start = np.unique(xs, return_index=True)
        end = np.append(start[1:], n)
        mid_u = (u_grid[start] + u_grid[end - 1]) / 2.0
        knots_x.append(uniq)
        knots_u.append(mid_u)
        inv_x.append(xs)
        inv_u.append(u_grid)
    return Normalizer(tuple(knots_x), tuple(knots_u), tuple(inv_x), tuple(inv_u),
                      tuple(identity))


def save_normalizer(norm: Normalizer, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"quantile-normalizer dim={norm.dim}\n")
        fh.write("identity " + " ".join(map(str, norm.identity)) + "\n")
        for i in range(norm.dim):
            for tag, arr in (("kx", norm.knots_x[i]), ("ku", norm.knots_u[i]),
                             ("ix", norm.inv_x[i]), ("iu", norm.inv_u[i])):
                fh.write(f"{tag}{i} " + " ".join(repr(float(v)) for v in arr) + "\n")


def load_normalizer(path) -> Normalizer:
    """A normalizer written by save_normalizer; a malformed file raises
    RepresentationError naming it."""
    with open(path) as fh:
        lines = [line.split() for line in fh]
    if not lines or not lines[0] or lines[0][0] != "quantile-normalizer":
        raise RepresentationError(f"not a normalizer file: {path}")
    try:
        dim = int(lines[0][1].split("=")[1])
        identity = tuple(int(v) for v in lines[1][1:])
        blocks = {parts[0]: np.array([float(v) for v in parts[1:]])
                  for parts in lines[2:]}
        knots = {tag: tuple(blocks[f"{tag}{i}"] for i in range(dim))
                 for tag in ("kx", "ku", "ix", "iu")}
        for i in range(dim):
            if (knots["kx"][i].size != knots["ku"][i].size
                    or knots["ix"][i].size != knots["iu"][i].size):
                raise ValueError(f"knot blocks of parameter {i} differ in length")
    except KeyError as exc:
        raise RepresentationError(
            f"normalizer block {exc.args[0]} is missing: {path}") from None
    except (IndexError, ValueError) as exc:
        raise RepresentationError(f"malformed normalizer ({exc}): {path}") from None
    return Normalizer(knots["kx"], knots["ku"], knots["ix"], knots["iu"], identity)


# ---------------------------------------------------------------------------
# Training rows


@dataclass(frozen=True)
class StackedDataset:
    """Feasible-row arrays laid out for vectorized row sampling."""

    shapes: np.ndarray       # (n, 13) raw
    norm_shapes: np.ndarray  # (n, 13) normalized
    vols: np.ndarray         # (n, 100)
    areas: np.ndarray        # (n, 100)
    wls: np.ndarray          # (n, 100)
    rws: np.ndarray          # (n, 4, 7) at LOA = 1 m

    @property
    def n(self) -> int:
        return self.shapes.shape[0]


def stack_records(table: HullTable, rows, normalizer: Normalizer) -> StackedDataset:
    """The feasible rows ``rows`` (indices among the feasible rows), laid
    out for row sampling."""
    shapes = table.shapes[table.feasible][rows]
    return StackedDataset(
        shapes=shapes,
        norm_shapes=normalizer.normalize(shapes),
        vols=table.vols[rows],
        areas=table.areas[rows],
        wls=table.wls[rows],
        rws=table.rws[rows],
    )


def _interp_marks(table: np.ndarray, idx: np.ndarray, tstar: np.ndarray) -> np.ndarray:
    """table[idx] linearly interpolated at tstar along the draft marks."""
    pos = np.clip((tstar - DRAFT_MARKS[0]) / (DRAFT_MARKS[1] - DRAFT_MARKS[0]),
                  0.0, DRAFT_MARKS.size - 1.000001)
    k = pos.astype(int)
    frac = pos - k
    return table[idx, k] * (1.0 - frac) + table[idx, k + 1] * frac


def resistance_rows(data: StackedDataset, rng: np.random.Generator, n_rows: int):
    """Vectorized Table-style training rows: X = [x_hat, t*, F_n, log LOA], y = C_T.

    Froude numbers are drawn over FROUDE_RANGE, the span of the grid's
    Froude axis, so no row clamps to a grid edge.
    """
    idx = rng.integers(0, data.n, n_rows)
    tstar = rng.uniform(*TSTAR_RANGE, n_rows)
    fn = rng.uniform(*FROUDE_RANGE, n_rows)
    log_loa = rng.uniform(*LOG10_LOA_RANGE, n_rows)
    loa = 10.0 ** log_loa

    sa = _interp_marks(data.areas, idx, tstar)
    wl = _interp_marks(data.wls, idx, tstar)
    rw = grid_lookup(data.rws, idx, tstar, fn) * loa**3
    speed = fn * froude_speed(wl, loa)
    rf = skin_friction(speed, sa, wl, loa)
    c_t = resistance_coefficient(rw + rf, speed, loa)
    return resistance_inputs(data.norm_shapes[idx], tstar, fn, log_loa), c_t


def resistance_inputs(x_norm, tstar, fn, log_loa) -> np.ndarray:
    """Resistance-network input rows [x_hat, t*, F_n, log10 LOA]."""
    return np.column_stack([x_norm, tstar, fn, log_loa])


def surrogate_rows(waterline, x_norm, tstar: float, speed: float,
                   loa: float) -> np.ndarray:
    """Resistance-network rows for normalized hulls at one draft, speed, LOA.

    The waterline network's WL, floored at WL_FLOOR, sets the Froude number
    F_n = U / sqrt(g WL LOA).  The sampler's resistance guidance and
    ``surrogate_total_resistance`` query these rows.
    """
    tcol = np.full(len(x_norm), tstar)
    wl_hat = np.maximum(waterline.predict(np.column_stack([x_norm, tcol])), WL_FLOOR)
    fn = speed / froude_speed(wl_hat, loa)
    return resistance_inputs(x_norm, tcol, fn, np.full(len(x_norm), math.log10(loa)))


def surrogate_total_resistance(resistance, waterline, x_norm, tstar: float,
                               speed: float, loa: float) -> float:
    """Surrogate R_T (N) of one normalized hull, the resistance network's
    C_T rescaled: the optimizer's objective and the audits' surrogate R_T."""
    rows = surrogate_rows(waterline, np.asarray(x_norm, dtype=float)[None, :],
                          tstar, speed, loa)
    cond = FlowCondition(speed=speed, loa=loa, tstar=tstar)
    return predicted_total_resistance(float(resistance.predict(rows)[0]), cond)


def geometry_rows(data: StackedDataset, rng: np.random.Generator, n_rows: int):
    """Rows for the volume / waterline regressors: X = [x_hat, t*].

    Drafts span the full conditioning range COND_TSTAR_RANGE because these
    models are queried at conditioning time, not just at simulation drafts.
    """
    idx = rng.integers(0, data.n, n_rows)
    tstar = rng.uniform(*COND_TSTAR_RANGE, n_rows)
    vol = _interp_marks(data.vols, idx, tstar)
    wl = _interp_marks(data.wls, idx, tstar)
    x = np.column_stack([data.norm_shapes[idx], tstar])
    return x, np.log10(vol), wl


def classifier_rows(table: HullTable, rows, normalizer: Normalizer):
    """The feasible rows ``rows`` (indices among the feasible rows), then
    every infeasible row: normalized vectors and feasibility labels."""
    good = np.flatnonzero(table.feasible)[rows]
    bad = np.flatnonzero(~table.feasible)
    raw = table.shapes[np.concatenate([good, bad])]
    labels = np.concatenate([np.ones(good.size), np.zeros(bad.size)])
    return normalizer.normalize(raw), labels


# ---------------------------------------------------------------------------
# CSV serialization

_CURVE_COLUMNS = tuple(f"{kind}_{k:03d}" for kind in ("vol", "area", "wl")
                       for k in range(1, DRAFT_MARKS.size + 1))
DATASET_FIELDS = HULL_FIELDS + ("feasible",) + _CURVE_COLUMNS + GRID_COLUMNS


def write_dataset_csv(table: HullTable, path) -> None:
    write_flagged_csv(path, DATASET_FIELDS, table.feasible,
                      np.column_stack([table.vols, table.areas, table.wls,
                                       table.rws.reshape(-1, len(GRID_COLUMNS))]),
                      lead=np.column_stack([table.loa, table.shapes]))


def _flagged_values(cells):
    """The values after a row's feasibility flag: an array (8 bytes a value,
    not a list's 32) under a set flag, None under a clear one."""
    if cells[0] not in ("0", "1"):
        raise ValueError(f"feasible flag {cells[0]!r}")
    return np.array([float(v) for v in cells[1:]]) if cells[0] == "1" else None


def read_dataset_csv(path) -> HullTable:
    """The table written by write_dataset_csv; a malformed row raises
    RepresentationError naming the file and the line."""
    nc = DRAFT_MARKS.size
    loa, shapes, tails = read_hull_rows(path, DATASET_FIELDS, _flagged_values)
    feasible = np.array([v is not None for v in tails], dtype=bool)
    values = np.array([v for v in tails if v is not None]).reshape(
        -1, len(DATASET_FIELDS) - len(HULL_FIELDS) - 1)
    return HullTable(
        loa=loa, shapes=shapes, feasible=feasible,
        vols=values[:, :nc], areas=values[:, nc:2 * nc], wls=values[:, 2 * nc:3 * nc],
        rws=values[:, 3 * nc:].reshape(-1, len(GRID_DRAFTS), len(GRID_FROUDE)))


def write_meta(path, entries: dict) -> None:
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


def read_meta(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    return out
