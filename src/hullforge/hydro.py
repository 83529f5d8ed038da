"""Thin-ship wave resistance, ITTC-1957 skin friction, total-resistance scale.

Wave resistance of a slender hull moving at speed U:

    R_w = (4 rho g^2) / (pi U^2) * int_1^inf (I^2 + J^2) lambda^2 / sqrt(lambda^2 - 1) dlambda
    I + iJ = intint dy/dx (x, z) exp(k0 lambda^2 z) exp(i k0 lambda x) dz dx,   k0 = g / U^2

with z <= 0 downward from the free surface and y the local half-breadth.
The lambda integral is evaluated after substituting lambda = cosh(theta),
which removes the endpoint singularity and turns the weight into
cosh^2(theta).  The inner double integral treats the slope field as
piecewise linear and integrates each cell against its exponential weight
exactly, so the decay of deep cells is captured without resolution loss.

The kernel (_wave_amplitude) takes one k0 per lambda node, so flow
conditions that share a slope field are evaluated together: a Michell call
over several conditions stacks every condition's theta nodes into one
evaluation, then each round of tail blocks of the conditions still
extending into one more.  Every row is computed independently, by the same
operations as alone (the depth table e^{kappa z} is a cumulative product
down from the waterline), so stacked values are bit for bit those of
separate calls.  The stacked rows are evaluated in chunks of at most
AMPLITUDE_ROWS, so a call's working set stays bounded however many
conditions it stacks, and by the same row independence the chunked values
are bit for bit those of one evaluation.  resistance_grid builds one slope
field and makes one call per draft, over the 7 Froude nodes of its 4 x 7
grid (2695 rows at the desk resolution, six chunks); an audit's
single-node call (385 rows) is one chunk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import (GRID_DRAFTS, GRID_FROUDE, PLANE_NX, PLANE_NZ, THETA_NODES,
                     WaterConstants)
from .errors import DomainError, QuadratureAccuracyWarning, SingularityError
from .geometry import HullParams, SlopeField, centerplane_slopes, waterline_bounds

MICHELL_PREFACTOR = 4.0     # classical thin-ship constant
TAIL_TOLERANCE = 1e-6       # admissible relative tail of the theta integral
REFINEMENT_WARN = 0.01      # self-check disagreement that triggers a warning
PHASE_BLOCK = 32            # x nodes per block of the phase sum
AMPLITUDE_ROWS = 512        # lambda rows per chunk of the wave-amplitude kernel


@dataclass(frozen=True)
class FlowCondition:
    """Speed and scale for one resistance evaluation, in seawater
    (WaterConstants)."""

    speed: float            # m/s
    loa: float              # m
    tstar: float            # draft ratio in (0, 1]

    def __post_init__(self):
        if self.speed < 0:
            raise DomainError("speed must be non-negative")
        if not 0.0 < self.tstar <= 1.0:
            raise DomainError("draft ratio must be in (0, 1]")


def froude_speed(wl, loa):
    """sqrt(g * WL * LOA), the speed at F_n = 1 (WL LOA-normalized); array-capable."""
    return np.sqrt(WaterConstants.g * wl * loa)


def ittc_line(reynolds):
    """ITTC-1957 correlation line: C_f = 0.075 / (log10(Re) - 2)^2; array-capable."""
    if np.any(np.asarray(reynolds) <= 100.0):
        raise SingularityError(
            f"ITTC line is singular for Re <= 100, got {np.min(reynolds)}")
    lg = np.log10(reynolds) - 2.0
    # lg * lg, not lg ** 2: a scalar's ** 2 calls pow() and an array's
    # multiplies, which differ in the last bit on about 0.06% of inputs
    # (skin_friction and resistance_coefficient square the same way)
    return 0.075 / (lg * lg)


def skin_friction(speed, sa, wl, loa):
    """R_f in Newtons from LOA-normalized wetted area and waterline; array-capable.

    Re uses the waterline length (not LOA) as its length scale.
    """
    reynolds = speed * wl * loa / WaterConstants.nu
    return (0.5 * ittc_line(reynolds) * WaterConstants.rho * (speed * speed) * sa
            * (loa * loa))


def friction_resistance(cond: FlowCondition, sa: float, wl: float) -> float:
    """Skin friction in Newtons for one flow condition (see skin_friction)."""
    if sa < 0 or wl < 0:
        raise DomainError("wetted area and waterline must be non-negative")
    if sa == 0.0 or cond.speed == 0.0:
        return 0.0
    return float(skin_friction(cond.speed, sa, wl, cond.loa))


def resistance_coefficient(total, speed, loa):
    """C_T = log10(R_T / (0.5 rho U^2 LOA^2)); array-capable."""
    return np.log10(total / (0.5 * WaterConstants.rho * (speed * speed) * (loa * loa)))


def _linexp_weights(h, lo, hi):
    """Weights (A, B) with  int_0^1 (f0 (1-s) + f1 s) lo e^{h s} ds = f0 A + f1 B,
    where hi = lo e^h.

    h may be complex; lo and hi are the exponentials at the cell ends, which
    the caller already holds.  Series fallback keeps small-|h| cells stable.
    """
    h = np.asarray(h)
    small = np.abs(h) < 1e-5
    hs = np.where(small, 1.0, h)
    a = (hi - lo - hs * lo) / hs**2
    b = (hs * hi - hi + lo) / hs**2
    if small.any():   # only far above design speeds: skip two full-size wheres
        a = np.where(small, (0.5 + h / 6.0 + h * h / 24.0) * lo, a)
        b = np.where(small, (0.5 + h / 3.0 + h * h / 8.0) * lo, b)
    return a, b


def _wave_amplitude(slopes: SlopeField, k0, lam: np.ndarray) -> np.ndarray:
    """I + iJ for each lambda node, by exact piecewise-linear cell quadrature.

    ``k0`` is one wavenumber for every node, or one per node: rows are
    independent, so each row's value is the same whether it is evaluated
    alone or stacked with other flow conditions' nodes.  The rows run in
    chunks of at most AMPLITUDE_ROWS, which bounds the working set of a
    stacked call and, by the same independence, leaves every value as it is.
    """
    x, z, f = slopes.x, slopes.z, slopes.dydx
    nblock = -(-x.size // PHASE_BLOCK)
    if nblock * PHASE_BLOCK > x.size:                          # zero-pad x
        f = np.concatenate([f, np.zeros((nblock * PHASE_BLOCK - x.size, z.size))])
    k0 = np.broadcast_to(k0, lam.shape)
    amp = np.empty(lam.size, dtype=complex)
    for lo in range(0, lam.size, AMPLITUDE_ROWS):
        rows = slice(lo, lo + AMPLITUDE_ROWS)
        amp[rows] = _amplitude_rows(x, z, f, k0[rows], lam[rows])
    return amp


def _amplitude_rows(x, z, f, k0, lam):
    """_wave_amplitude on one chunk of rows; ``f`` is the slope field
    zero-padded to whole PHASE_BLOCKs of x nodes."""
    dz = z[1] - z[0]
    dx = x[1] - x[0]
    kappa = k0 * lam**2                       # vertical decay rates
    mu = k0 * lam                             # longitudinal wavenumbers

    # z-collapse: node weights from exact integration of PL * exp(kappa z).
    # A, B are folded into the node exponentials before exponentiating so
    # large kappa*dz never overflows (exp(kappa z) <= 1 throughout).  The
    # exponential table itself is one cumulative product downward from the
    # waterline, e^{-kappa dz m} = ((1 e^{-kappa dz}) e^{-kappa dz}) ...: one
    # exp per lambda instead of nlam*nz.
    h = kappa[:, None] * dz                                    # (nlam, 1)
    decay = np.exp(-h)                                         # e^{-kappa dz} <= 1
    ez = np.empty((lam.size, z.size))
    ez[:, 0] = 1.0                                             # z = 0, reversed
    np.cumprod(np.broadcast_to(decay, (lam.size, z.size - 1)), axis=1,
               out=ez[:, 1:])
    ez = ez[:, ::-1]                                           # z ascending
    a_lo, b_lo = _linexp_weights(h, ez[:, :-1], ez[:, 1:])
    wz = np.zeros((lam.size, z.size))
    wz[:, :-1] += dz * a_lo
    wz[:, 1:] += dz * b_lo
    del ez, a_lo, b_lo          # keep the chunk's working set to g and wz

    # x sweep with complex exponential weights (A, B per cell).  Regrouped
    # by node, with s = e^{i mu dx} and n nodes, the cell sum is
    #   sum_{j<n-1} s^j (A g_j + B g_{j+1})
    #     = A (S - s^{n-1} g_{n-1}) + B (S - g_0) / s,   S = sum_j s^j g_j,
    # so the one phase sum S runs over the real z-collapsed nodes g_j.  It
    # runs in blocks of PHASE_BLOCK nodes, s^j = s^{PHASE_BLOCK a} s^b, so
    # two short cumulative products replace the full (nlam, nx) phase table.
    nlam, n = lam.size, x.size
    nblock = f.shape[0] // PHASE_BLOCK
    g = wz @ f.T                                               # (nlam, padded nx)
    step = np.exp(1j * mu * dx)
    inner = np.empty((nlam, PHASE_BLOCK), dtype=complex)        # s^b
    inner[:, 0] = 1.0
    np.cumprod(np.broadcast_to(step[:, None], (nlam, PHASE_BLOCK - 1)),
               axis=1, out=inner[:, 1:])
    outer = np.empty((nlam, nblock), dtype=complex)             # s^{PHASE_BLOCK a}
    outer[:, 0] = 1.0
    np.cumprod(np.broadcast_to((inner[:, -1] * step)[:, None], (nlam, nblock - 1)),
               axis=1, out=outer[:, 1:])
    parts = (g.reshape(nlam, nblock, PHASE_BLOCK)
             @ np.stack([inner.real, inner.imag], axis=2))     # (nlam, nblock, 2)
    total = np.einsum("la,la->l", parts[..., 0] + 1j * parts[..., 1], outer)
    last = outer[:, (n - 1) // PHASE_BLOCK] * inner[:, (n - 1) % PHASE_BLOCK]
    ax, bx = _linexp_weights(1j * mu * dx, 1.0, step)
    return dx * np.exp(1j * mu * x[0]) * (ax * (total - last * g[:, n - 1])
                                          + bx * (total - g[:, 0]) / step)


def _theta_grid(k0: float, z: np.ndarray, n_theta: int):
    """Simpson nodes on [0, theta_max], theta_max from the exponential tail
    of the first subsurface layer (capped to a practical range)."""
    dz = abs(z[1] - z[0])
    lam_cut = math.sqrt(max(4.0, -math.log(1e-9) / (2.0 * k0 * dz)))
    theta_max = min(max(math.acosh(max(lam_cut, 1.5)), 2.5), 8.0)
    n = max(int(n_theta) | 1, 9)   # Simpson needs an odd node count
    return np.linspace(0.0, theta_max, n)


def _simpson(y: np.ndarray, dx: float) -> float:
    n = y.size
    s = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return float(s * dx / 3.0)


def michell_wave_resistance(slopes: SlopeField, cond, *,
                            n_theta: int = THETA_NODES):
    """Wave-making resistance in Newtons for a centerplane slope field.

    ``cond`` is one FlowCondition (returns a float) or a sequence of them
    sharing ``slopes`` (returns an array, one value per condition).  The
    conditions' theta nodes go through one wave-amplitude evaluation, and
    each round of tail blocks through one more; the sums, stopping rule,
    warnings and values are per condition, bit for bit those of separate
    calls.

    The result is checked against the same integral on every other node of
    the theta grid and of each tail block, each at its own spacing;
    disagreement above REFINEMENT_WARN raises a
    QuadratureAccuracyWarning (the value is still returned).  The theta
    range is extended until its last block contributes less than 1e-6 of
    the running total.
    """
    single = isinstance(cond, FlowCondition)
    conds = [cond] if single else list(cond)
    if any(c.speed <= 0 for c in conds):
        raise DomainError("wave resistance needs a positive speed")
    if not conds:
        return np.empty(0)
    k0 = [WaterConstants.g / c.speed**2 for c in conds]

    def integrand(cs, ths):
        """(I^2 + J^2) lambda^2 on the theta nodes ``ths`` of conditions ``cs``."""
        lams = [np.cosh(th) for th in ths]
        sizes = [th.size for th in ths]
        amp = _wave_amplitude(slopes, np.repeat([k0[c] for c in cs], sizes),
                              np.concatenate(lams))
        vals = np.split(amp.real**2 + amp.imag**2, np.cumsum(sizes)[:-1])
        return [v * lam**2 for v, lam in zip(vals, lams)]

    live = list(range(len(conds)))          # conditions whose tail still grows
    theta = [_theta_grid(k, slopes.z, n_theta) for k in k0]
    vals = integrand(live, theta)
    dthe = [th[1] - th[0] for th in theta]
    end = [th[-1] for th in theta]          # each grid starts at theta = 0
    total = [_simpson(v, d) for v, d in zip(vals, dthe)]
    # the self-check's estimate: each piece on its every other node
    coarse = [_simpson(v[::2], 2.0 * d) for v, d in zip(vals, dthe)]

    # extend the truncation until the marginal block is negligible
    for _ in range(6):
        if not live:
            break
        ext = [np.linspace(end[c], end[c] + 0.25 * end[c], 33) for c in live]
        growing = []
        for c, th, ext_vals in zip(live, ext, integrand(live, ext)):
            block = _simpson(ext_vals, th[1] - th[0])
            if block <= TAIL_TOLERANCE * total[c]:   # a zero field ends at once
                continue
            end[c] = th[-1]
            total[c] += block
            coarse[c] += _simpson(ext_vals[::2], 2.0 * (th[1] - th[0]))
            growing.append(c)
        live = growing

    rws = []
    for c, cnd in enumerate(conds):
        if c in live:
            warnings.warn("theta tail failed to decay below tolerance",
                          QuadratureAccuracyWarning, stacklevel=2)
        prefac = (MICHELL_PREFACTOR * WaterConstants.rho * WaterConstants.g**2
                  / (math.pi * cnd.speed**2))
        rw = prefac * total[c]
        gap = abs(rw - prefac * coarse[c]) / rw if rw > 0 else 0.0
        if gap > REFINEMENT_WARN:
            warnings.warn(f"Michell quadrature self-check disagrees by {gap:.1%}",
                          QuadratureAccuracyWarning, stacklevel=2)
        rws.append(rw)
    return rws[0] if single else np.array(rws)


def resistance_grid(params: HullParams, *, n_theta: int = THETA_NODES,
                    nx: int = PLANE_NX, nz: int = PLANE_NZ) -> np.ndarray:
    """Wave resistance (N) on the (GRID_DRAFTS, GRID_FROUDE) grid, (4, 7).

    The grid is computed at a reference LOA of 1 m; values rescale to any
    length by Froude similitude, R_w(LOA) = rw * LOA^3 at equal Froude
    number.  Speeds at each node come from the hull's own waterline length
    at that draft.  Each draft builds one slope field and makes one Michell
    call over all its Froude nodes.
    """
    ref = HullParams(1.0, params.shape)
    rw = np.empty((len(GRID_DRAFTS), len(GRID_FROUDE)))
    for i, tstar in enumerate(GRID_DRAFTS):
        x_aft, x_fwd = waterline_bounds(ref, tstar)
        speed = froude_speed(x_fwd - x_aft, 1.0)
        rw[i] = michell_wave_resistance(
            centerplane_slopes(ref, tstar, nx, nz),
            [FlowCondition(speed=float(fn * speed), loa=1.0, tstar=tstar)
             for fn in GRID_FROUDE], n_theta=n_theta)
    return rw


def grid_lookup(rws: np.ndarray, idx, tstar, fn):
    """Bilinear (draft, Froude) lookup in the grids ``rws[idx]`` (at LOA = 1 m).

    ``rws`` stacks grids as (n, drafts, froude); queries outside the grid
    clamp to its edges.  Array-capable in ``idx``, ``tstar`` and ``fn``.
    """
    drafts = np.asarray(GRID_DRAFTS)
    froude = np.asarray(GRID_FROUDE)
    fn = np.clip(fn, froude[0], froude[-1])
    tstar = np.clip(tstar, drafts[0], drafts[-1])
    i = np.clip(np.searchsorted(drafts, tstar, side="right"), 1, drafts.size - 1)
    j = np.clip(np.searchsorted(froude, fn, side="right"), 1, froude.size - 1)
    ft = (tstar - drafts[i - 1]) / (drafts[i] - drafts[i - 1])
    ff = (fn - froude[j - 1]) / (froude[j] - froude[j - 1])
    g00 = rws[idx, i - 1, j - 1]
    g01 = rws[idx, i - 1, j]
    g10 = rws[idx, i, j - 1]
    g11 = rws[idx, i, j]
    return (g00 * (1 - ft) * (1 - ff) + g01 * (1 - ft) * ff
            + g10 * ft * (1 - ff) + g11 * ft * ff)


def predicted_total_resistance(c_t: float, cond: FlowCondition) -> float:
    """Inverse of the coefficient scale: R_T = 10^{C_T} * 0.5 rho U^2 LOA^2."""
    return (10.0**c_t * 0.5 * WaterConstants.rho * (cond.speed * cond.speed)
            * (cond.loa * cond.loa))


GRID_COLUMNS = tuple(
    f"rw_{d:.2f}_{f:.2f}" for d in GRID_DRAFTS for f in GRID_FROUDE
)

