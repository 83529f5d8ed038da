"""Post-sampling analysis: audits, tolerance stats, PCA, KDE, comparisons.

Audits re-simulate every feasible sampled hull (exact geometry + the
thin-ship solver) next to its surrogate prediction, which is what exposes
surrogate exploitation by the optimizer.  Volume errors use the exact
geometric measure as ground truth, never the volume regressor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import PLANE_NX, PLANE_NZ, THETA_NODES, TestCase
from .dataset import surrogate_total_resistance
from .errors import (DegeneracyError, DomainError, FeasibilityError,
                     QuadratureAccuracyWarning, RepresentationError)
from .geometry import HullParams, centerplane_slopes, measure_at, validate
from .hydro import FlowCondition, friction_resistance, michell_wave_resistance
from .neural import MlpModel

TOLERANCE_BANDS = (0.01, 0.05, 0.10)
VOLUME_BAND = 0.05      # the volume-error band of the summary and comparison
KDE_GRID = 256


@dataclass(frozen=True)
class AuditTable:
    """The audits of a batch, on HullTable's convention.

    ``feasible`` covers every hull in input order; the other columns cover
    the feasible hulls only, in row order.  ``quadrature_warnings`` counts
    the QuadratureAccuracyWarnings the batch's Michell audits raised.
    """

    feasible: np.ndarray        # (n,) bool
    vol_err: np.ndarray         # (n_feasible,)
    beam_err: np.ndarray
    depth_err: np.ndarray
    surrogate_rt: np.ndarray
    simulated_rt: np.ndarray
    quadrature_warnings: int = 0


AUDIT_COLUMNS = ("vol_err", "beam_err", "depth_err", "surrogate_rt", "simulated_rt")


def audit_one(shape_norm, case: TestCase, resistance: MlpModel,
              waterline: MlpModel, normalizer, *, n_theta: int = THETA_NODES,
              plane_nx: int = PLANE_NX, plane_nz: int = PLANE_NZ):
    """Validate, measure, and re-simulate a single normalized design vector.

    Returns the AUDIT_COLUMNS values, or None for an infeasible hull.
    """
    shape = normalizer.denormalize(np.asarray(shape_norm, dtype=float))
    params = HullParams(case.loa, shape)
    if not validate(params).feasible:
        return None
    beam_err, depth_err, tstar = case.dimension_errors(shape)
    if tstar > 1.0:   # the target draft cannot submerge past the deck
        return None

    vol, sa, wl = measure_at(params, tstar)
    vol_err = (vol * case.loa**3 - case.volume) / case.volume

    cond = FlowCondition(speed=case.speed, loa=case.loa, tstar=tstar)
    slopes = centerplane_slopes(params, tstar, plane_nx, plane_nz)
    rw = michell_wave_resistance(slopes, cond, n_theta=n_theta)
    rf = friction_resistance(cond, sa, wl)
    simulated = rw + rf

    surrogate = surrogate_total_resistance(resistance, waterline, shape_norm,
                                           tstar, case.speed, case.loa)
    return vol_err, beam_err, depth_err, surrogate, simulated


def audit_samples(shapes_norm, case: TestCase, resistance: MlpModel,
                  waterline: MlpModel, normalizer, **kw) -> AuditTable:
    """Audit a batch of normalized design vectors.

    A hull the geometry or physics rejects (domain, feasibility or
    representation error) is recorded as infeasible; any other exception
    is a bug and propagates.  Every QuadratureAccuracyWarning is counted,
    not shown; other warnings pass through.
    """
    audits = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QuadratureAccuracyWarning)
        for row in np.atleast_2d(np.asarray(shapes_norm, dtype=float)):
            try:
                audits.append(audit_one(row, case, resistance, waterline, normalizer,
                                        **kw))
            except (DomainError, FeasibilityError, RepresentationError):
                audits.append(None)
    quadrature = 0
    for w in caught:
        if issubclass(w.category, QuadratureAccuracyWarning):
            quadrature += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   source=w.source)
    values = np.array([a for a in audits if a is not None], dtype=float)
    return AuditTable(np.array([a is not None for a in audits], dtype=bool),
                      *values.reshape(-1, len(AUDIT_COLUMNS)).T.copy(),
                      quadrature_warnings=quadrature)


def audit_stats(audits: AuditTable) -> dict:
    """Feasibility rate, error moments, the share of all hulls that are
    feasible and within VOLUME_BAND of the target volume, and the count of
    quadrature warnings, in the column order of the evaluation summary."""
    n = audits.feasible.size
    stats = {"n": n, "feasibility_rate": audits.vol_err.size / n if n else 0.0}
    for name in ("vol_err", "beam_err", "depth_err"):
        vals = getattr(audits, name)
        stats[f"{name}_mean"] = float(vals.mean()) if vals.size else math.nan
        stats[f"{name}_std"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    in_band = np.count_nonzero(np.abs(audits.vol_err) <= VOLUME_BAND)
    stats["volume_in_band"] = in_band / n if n else 0.0
    stats["quadrature_warnings"] = audits.quadrature_warnings
    return stats


# ---------------------------------------------------------------------------
# Diversity / distribution views


@dataclass(frozen=True)
class Pca2:
    mean: np.ndarray
    components: np.ndarray        # (2, dim)
    explained_ratio: np.ndarray   # (2,)

    def project(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.mean) @ self.components.T


def fit_pca2(train) -> Pca2:
    """Top-2 principal directions of the training vectors (mean-centred)."""
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.shape[0] < 3:
        raise DegeneracyError("PCA needs at least 3 training vectors")
    mean = train.mean(axis=0)
    centred = train - mean
    _u, s, vt = np.linalg.svd(centred, full_matrices=False)
    if s.size < 2 or s[1] <= 1e-12 * max(s[0], 1.0):
        raise DegeneracyError("training data has rank < 2")
    var = s**2
    return Pca2(mean=mean, components=vt[:2],
                explained_ratio=var[:2] / var.sum())


def kde(values):
    """Gaussian KDE with Silverman bandwidth.

    Returns (grid, density) on KDE_GRID points.  The grid spans the data
    plus four bandwidths per side, wide enough that the trapezoid mass
    stays within 1e-3 of one even for two-point samples.  Constant data
    degenerates to a narrow spike with a warning.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise DomainError("KDE needs at least 2 values")
    std = values.std(ddof=1)
    iqr = np.subtract(*np.percentile(values, [75, 25]))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread == 0.0:
        warnings.warn("zero-variance sample; KDE degenerates to a spike")
        h = max(abs(values[0]), 1.0) * 1e-3
    else:
        h = 0.9 * spread * values.size ** (-0.2)
    grid = np.linspace(values.min() - 4 * h, values.max() + 4 * h, KDE_GRID)
    z = (grid[:, None] - values[None, :]) / h
    density = np.exp(-0.5 * z**2).sum(axis=1) / (values.size * h * math.sqrt(2 * math.pi))
    return grid, density


# ---------------------------------------------------------------------------
# Optimizer-vs-sampler comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Counts of sampled hulls that beat the optimizer's best simulation."""

    nsga_min_rt: float           # inf when no NSGA-II hull audits as feasible
    counts: dict                 # tolerance band -> count of lower-R_T hulls
    sample_min_rt: float | None  # min simulated R_T inside the 5% band
    delta_rt: float | None       # (sample_min - nsga_min) / nsga_min


def compare(sampled: AuditTable, nsga: AuditTable) -> ComparisonReport:
    """Count sampled hulls with simulated R_T below the optimizer minimum,
    per volume-error tolerance band.

    An optimizer population with no feasible audit has minimum inf: every
    feasible in-band sample beats it, and ``delta_rt`` is None.
    """
    if not nsga.feasible.size or not sampled.feasible.size:
        raise DomainError("comparison needs non-empty audit sets")
    nsga_min = float(nsga.simulated_rt.min()) if nsga.simulated_rt.size else math.inf

    err, rt = np.abs(sampled.vol_err), sampled.simulated_rt
    counts = {tol: int(np.count_nonzero((err <= tol) & (rt < nsga_min)))
              for tol in TOLERANCE_BANDS}
    in_band = rt[err <= VOLUME_BAND]
    sample_min = float(in_band.min()) if in_band.size else None
    delta = (None if sample_min is None or math.isinf(nsga_min)
             else (sample_min - nsga_min) / nsga_min)
    return ComparisonReport(nsga_min_rt=nsga_min, counts=counts,
                            sample_min_rt=sample_min, delta_rt=delta)
