"""Correctness checks computed apart from the program.

Every check reads the artifacts a command wrote (CSV, text archives,
manifests) with its own parsers and recomputes what they claim from first
principles.  Program functions are used only where they define the input:
``geometry.half_breadth`` (the hull surface), ``geometry.measure_at`` (the
wetted area fed to the friction formula), and the program's own Michell
routine to size the Michell tolerance by refinement.  Each check returns a
list of failure strings; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np

RHO, G, NU = 1025.0, 9.81, 1.19e-6     # seawater, as in the program's config
MICHELL_FLOOR = 0.005     # relative floor of the Michell tolerance
VOLUME_TOL = 0.01         # relative; the program's 256 x-nodes are off by up to
                          # 0.42% at the lowest draft marks of the smoke dataset
SHAPE_COLUMNS = ("beam_ratio", "depth_ratio", "run_frac", "entrance_frac",
                 "run_fullness", "entrance_fullness", "section_fullness",
                 "deadrise_frac", "bow_rake", "stern_rake", "bulb_len",
                 "bulb_radius", "bulb_height")


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def hull_from(row: dict, loa: float | None = None):
    """HullParams from a CSV row holding the loa + 13 shape columns."""
    from hullforge.geometry import HullParams
    shape = np.array([float(row[k]) for k in SHAPE_COLUMNS])
    return HullParams(float(row["loa"]) if loa is None else loa, shape)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Michell's integral, brute force
#
# With y = 0 at both ends of every waterline (true for every hull the
# sampler accepts), integrating I + iJ by parts along x removes the slope:
#   int f e^{i mu x} dx = -i mu int y e^{i mu x} dx,   f = dy/dx,  mu = k0 lam
# so the double integral is summed from the half-breadth itself, by the
# trapezoid rule on a uniform x grid and on a z grid graded toward the
# free surface (z = -T u^2), which resolves e^{k0 lam^2 z} up to lam ~ 100.
# The lambda integral uses lam = cosh(theta) and the trapezoid rule.


def michell_field(half_breadth_m, x, z, speed, *, rho=RHO, g=G, n_theta=2048,
                  theta_max=5.0) -> float:
    """R_w (N) for a sampled half-breadth field ``half_breadth_m[x, z]`` (m)."""
    y = np.asarray(half_breadth_m, dtype=float)
    wx = np.full(x.size, x[1] - x[0])
    wx[[0, -1]] *= 0.5
    dz = np.abs(np.diff(z))
    wz = np.zeros(z.size)
    wz[:-1] += dz / 2
    wz[1:] += dz / 2
    k0 = g / speed**2
    theta = np.linspace(0.0, theta_max, n_theta)
    lam = np.cosh(theta)
    mu = k0 * lam
    ez = np.exp((k0 * lam**2)[:, None] * z[None, :]) * wz          # (lam, z)
    depth_sum = (y * wx[:, None]) @ ez.T                               # (x, lam)
    amp = np.einsum("xl,xl->l", np.exp(1j * np.outer(x, mu)), depth_sum)
    integrand = mu**2 * (amp.real**2 + amp.imag**2) * lam**2
    return 4.0 * rho * g**2 / (math.pi * speed**2) * float(np.trapezoid(integrand, theta))


def michell_hull(params, tstar: float, speed: float, *, nx=2048, nz=96,
                 n_theta=1024) -> float:
    """Brute-force R_w (N) of a hull at draft ratio ``tstar`` and ``speed``."""
    from hullforge.geometry import half_breadth
    loa, d = params.loa, params.depth_ratio
    draft = tstar * d * loa
    x = np.linspace(0.0, loa, nx)
    z = -draft * np.linspace(0.0, 1.0, nz) ** 2
    zeta = (z / loa + tstar * d) / d
    y = loa * half_breadth(params, (x / loa)[:, None], zeta[None, :])
    return michell_field(y, x, z, speed, n_theta=n_theta)


def michell_refined(params, tstar: float, speed: float) -> tuple[float, float]:
    """(R_w, relative change when x, z and theta resolutions all double)."""
    base = michell_hull(params, tstar, speed)
    fine = michell_hull(params, tstar, speed, nx=4096, nz=192, n_theta=2048)
    return fine, _rel(base, fine)


def program_gap(params, tstar: float, speed: float, *, nx=512, nz=48,
                n_theta=384) -> float:
    """Relative change of the program's own Michell value when its slope
    grid and theta nodes double: its discretization error at this node."""
    from hullforge.geometry import centerplane_slopes
    from hullforge.hydro import FlowCondition, michell_wave_resistance
    cond = FlowCondition(speed=speed, loa=params.loa, tstar=tstar)
    with warnings.catch_warnings(record=True):   # counted by the trace, not here
        warnings.simplefilter("always")
        coarse, fine = (michell_wave_resistance(
            centerplane_slopes(params, tstar, k * nx, k * nz), cond,
            n_theta=k * n_theta) for k in (1, 2))
    return _rel(coarse, fine)


def michell_reference(params, tstar: float, speed: float) -> tuple[float, float]:
    """(brute-force R_w, relative tolerance for the program's value).

    The tolerance is measured by refinement: a 0.5% floor, plus three times
    the brute force's own change under refinement, plus twice the program's
    (at Fn 0.15 the program moves by ~2% when its grid doubles).
    """
    want, gap = michell_refined(params, tstar, speed)
    return want, MICHELL_FLOOR + 3.0 * gap + 2.0 * program_gap(params, tstar, speed)


def waterline_length(params, tstar: float) -> float:
    """LOA-normalized waterline length between the raked profile ends."""
    return 1.0 - (params.bow_rake + params.stern_rake) * (1.0 - tstar)


def grid_nodes(header) -> list[tuple[str, float, float]]:
    """(column, draft ratio, Froude number) of every ``rw_<t*>_<Fn>`` column."""
    out = []
    for col in header:
        if col.startswith("rw_"):
            _, t, f = col.split("_")
            out.append((col, float(t), float(f)))
    return out


def check_grid_nodes(hulls_csv, picks) -> list[str]:
    """Brute-force Michell at (row index, column) picks of a dataset CSV.

    Grid values are at LOA = 1 m, with the speed set by the Froude number
    on the hull's own waterline at that draft.
    """
    rows = read_rows(hulls_csv)
    nodes = {c: (t, f) for c, t, f in grid_nodes(rows[0].keys())}
    fails = []
    for i, col in picks:
        row = rows[i]
        tstar, fn = nodes[col]
        params = hull_from(row, loa=1.0)
        speed = fn * math.sqrt(G * waterline_length(params, tstar))
        got = float(row[col])
        want, tol = michell_reference(params, tstar, speed)
        if not _rel(got, want) <= tol:
            fails.append(f"{hulls_csv} row {i} {col}: stored {got:.6g}, brute "
                         f"force {want:.6g} (tolerance {tol:.2%})")
    return fails


# ---------------------------------------------------------------------------
# Displaced volume


def displaced_volume(params, tstar: float, *, nx=2048, nzeta=1024) -> float:
    """LOA-normalized volume below draft ratio ``tstar`` by the trapezoid
    rule over ``geometry.half_breadth``."""
    from hullforge.geometry import half_breadth
    x = np.linspace(0.0, 1.0, nx)
    zeta = np.linspace(0.0, tstar, nzeta)
    y = half_breadth(params, x[None, :], zeta[:, None])
    return 2.0 * params.depth_ratio * float(
        np.trapezoid(np.trapezoid(y, x, axis=1), zeta))


def check_curve_volumes(hulls_csv, picks) -> list[str]:
    """Dataset ``vol_<k>`` columns against the integrated half-breadth."""
    rows = read_rows(hulls_csv)
    fails = []
    for i, k in picks:
        row = rows[i]
        tstar = 0.01 * k            # draft mark k of 100 sits at k / 100
        params = hull_from(row, loa=1.0)
        want = displaced_volume(params, tstar)
        got = float(row[f"vol_{k:03d}"])
        if not _rel(got, want) <= VOLUME_TOL:
            fails.append(f"{hulls_csv} row {i} vol_{k:03d}: stored {got:.6g}, "
                         f"integrated {want:.6g}")
    return fails


# ---------------------------------------------------------------------------
# Audits: volume error, ITTC friction and total resistance


def ittc_friction(speed, loa, wl, area) -> float:
    """ITTC-1957 skin friction (N); Re on the waterline length."""
    re = speed * wl * loa / NU
    cf = 0.075 / (math.log10(re) - 2.0) ** 2
    return 0.5 * cf * RHO * speed**2 * area * loa**2


def check_audit_rows(case, hulls_csv, audit_csv, normalizer_txt, picks, *,
                     resistance=True) -> list[str]:
    """Recompute vol_err (and, with ``resistance``, simulated R_T) for
    picked rows of one sampled arm; ``case`` is a config.TestCase.

    The audit reads ``hulls.csv`` back through the dataset's quantile map
    (normalize, then denormalize), which is not exactly the identity, so
    the hull recomputed here is the one the audit saw.
    """
    from hullforge.geometry import HullParams, measure_at
    hulls = read_rows(hulls_csv)
    audits = read_rows(audit_csv)
    if len(hulls) != len(audits):
        return [f"{audit_csv}: {len(audits)} audit rows for {len(hulls)} hulls"]
    normalize, denormalize = load_quantile_map(normalizer_txt)
    raw = np.array([[float(r[k]) for k in SHAPE_COLUMNS] for r in hulls])
    audited = denormalize(normalize(raw))
    fails = []
    for i in picks:
        audit = audits[i]
        if audit["feasible"] != "1":
            continue
        params = HullParams(case.loa, audited[i])
        tstar = case.draft / (params.depth_ratio * case.loa)
        vol = displaced_volume(params, tstar) * case.loa**3
        want = (vol - case.volume) / case.volume
        got = float(audit["vol_err"])
        if abs(got - want) > VOLUME_TOL * vol / case.volume:
            fails.append(f"{audit_csv} row {i}: vol_err {got:.6g}, "
                         f"integrated {want:.6g}")
        if not resistance:
            continue
        area = measure_at(params, tstar)[1]
        rf = ittc_friction(case.speed, case.loa, waterline_length(params, tstar), area)
        got = float(audit["simulated_rt"])
        rw, tol = michell_reference(params, tstar, case.speed)
        if not abs(got - rw - rf) <= tol * rw + 1e-9 * (rw + rf):
            fails.append(f"{audit_csv} row {i}: simulated_rt {got:.6g}, "
                         f"R_w + R_f = {rw:.6g} + {rf:.6g} (R_w tolerance {tol:.2%})")
    return fails


def check_comparison(eval_dir) -> list[str]:
    """Recount ``comparison.csv`` from the ``audit_*.csv`` files."""
    eval_dir = Path(eval_dir)

    def feasible(name):
        return [r for r in read_rows(eval_dir / f"audit_{name}.csv")
                if r["feasible"] == "1"]

    nsga_min = min(float(r["simulated_rt"]) for r in feasible("nsga2"))
    fails = []
    for row in read_rows(eval_dir / "comparison.csv"):
        arm = feasible(row["arm"])
        want = {"nsga_min_rt": nsga_min}
        for tol, col in ((0.01, "n_low_rt_1pct"), (0.05, "n_low_rt_5pct"),
                         (0.10, "n_low_rt_10pct")):
            want[col] = sum(1 for r in arm if abs(float(r["vol_err"])) <= tol
                            and float(r["simulated_rt"]) < nsga_min)
        band = [float(r["simulated_rt"]) for r in arm
                if abs(float(r["vol_err"])) <= 0.05]
        want["sample_min_rt_5pct"] = min(band) if band else None
        want["delta_rt"] = (min(band) - nsga_min) / nsga_min if band else None
        for col, value in want.items():
            raw = row[col]
            if value is None:
                ok = raw == ""
            elif isinstance(value, int):
                ok = raw == str(value)
            else:
                ok = raw != "" and _rel(float(raw), value) <= 1e-12
            if not ok:
                fails.append(f"{eval_dir}/comparison.csv {row['arm']}.{col}: "
                             f"{raw!r}, recount {value!r}")
    return fails


def check_elitism(history_csv) -> list[str]:
    """NSGA-II keeps its best feasible hull: best_rt never rises, and once
    a feasible hull exists the population never loses all of them."""
    best = None
    for row in read_rows(history_csv):
        value = float(row["best_rt"])
        if math.isnan(value):
            if best is not None:
                return [f"{history_csv} gen {row['gen']}: feasible hulls lost"]
            continue
        if best is not None and value > best:
            return [f"{history_csv} gen {row['gen']}: best_rt rose from "
                    f"{best!r} to {value!r}"]
        best = value
    return []


# ---------------------------------------------------------------------------
# Manifests


def check_manifest(directory) -> list[str]:
    """Every ``sha256.<file>`` line of ``manifest.txt`` matches the file."""
    directory = Path(directory)
    fails, listed = [], 0
    for line in (directory / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if not key.startswith("sha256."):
            continue
        listed += 1
        path = directory / key[len("sha256."):]
        if not path.is_file():
            fails.append(f"{path}: listed in the manifest but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != value:
            fails.append(f"{path}: sha256 differs from the manifest")
    if not listed:
        fails.append(f"{directory}/manifest.txt lists no files")
    return fails


def check_manifests(out_dir) -> list[str]:
    fails = []
    for manifest in sorted(Path(out_dir).rglob("manifest.txt")):
        fails += check_manifest(manifest.parent)
    return fails


# ---------------------------------------------------------------------------
# Trained models: properties any working training has


class Mlp:
    """Forward pass of a ``mlp <sizes> tanh <head>`` text archive block."""

    def __init__(self, lines):
        head = lines.pop(0).split()
        if head[0] != "mlp" or head[-2] != "tanh":
            raise ValueError(f"not an mlp block: {head[:3]}")
        self.head = head[-1]
        sizes = [int(v) for v in head[1:-2]]
        self.layers = []
        for i in range(len(sizes) - 1):
            tag, rows, cols = lines.pop(0).split()
            if tag != f"W{i}" or (int(rows), int(cols)) != (sizes[i], sizes[i + 1]):
                raise ValueError(f"bad weight block {tag}")
            w = np.array([[float(v) for v in lines.pop(0).split()]
                          for _ in range(int(rows))])
            lines.pop(0)
            b = np.array([float(v) for v in lines.pop(0).split()])
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"malformed block {tag}")
            self.layers.append((w, b))

    @classmethod
    def load(cls, path):
        return cls(Path(path).read_text().splitlines())

    def __call__(self, x):
        h = np.asarray(x, dtype=float)
        for i, (w, b) in enumerate(self.layers):
            h = h @ w + b
            if i < len(self.layers) - 1:
                h = np.tanh(h)
        if self.head == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-h))
        return h[:, 0] if h.shape[1] == 1 else h


def load_denoiser(path):
    """(cond_w, cond_b, mlp, embed_dim, timesteps) from a denoiser archive."""
    lines = Path(path).read_text().splitlines()
    head = lines.pop(0).split()
    if head[0] != "denoiser":
        raise ValueError("not a denoiser archive")
    _x_dim, cond_dim, embed_dim, timesteps = (int(v) for v in head[1:])
    lines.pop(0)
    cond_w = np.array([[float(v) for v in lines.pop(0).split()]
                       for _ in range(embed_dim)])
    lines.pop(0)
    cond_b = np.array([float(v) for v in lines.pop(0).split()])
    if cond_w.shape != (embed_dim, cond_dim) or cond_b.shape != (embed_dim,):
        raise ValueError("bad conditioning block")
    return cond_w, cond_b, Mlp(lines), embed_dim, timesteps


def load_quantile_map(path):
    """(normalize, denormalize) of a normalizer file, on (n, dim) raw rows."""
    lines = Path(path).read_text().splitlines()
    dim = int(lines[0].split("dim=")[1])
    identity = {int(v) for v in lines[1].split()[1:]}
    blocks = {p[0]: np.array([float(v) for v in p[1:]])
              for p in (line.split() for line in lines[2:])}

    def normalize(raw):
        out = np.array(raw, dtype=float)
        for i in set(range(dim)) - identity:
            out[:, i] = np.interp(out[:, i], blocks[f"kx{i}"], blocks[f"ku{i}"])
        return out

    def denormalize(unit):
        out = np.clip(np.array(unit, dtype=float), -1.0, 1.0)
        for i in set(range(dim)) - identity:
            out[:, i] = np.interp(out[:, i], blocks[f"iu{i}"], blocks[f"ix{i}"])
        return out
    return normalize, denormalize


def holdout_indices(n_feasible: int, holdout_fraction: float, seed: int):
    """The training split's held-out feasible hulls: the first
    ``holdout_fraction`` of a permutation drawn from (seed, 11)."""
    state = int(np.random.SeedSequence([seed, 11]).generate_state(1)[0])
    order = np.random.default_rng(state).permutation(n_feasible)
    return sorted(int(i) for i in order[:max(1, int(n_feasible * holdout_fraction))])


def check_training(out_dir, seed: int, *, holdout_fraction: float = 0.125,
                   beta_start: float = 1e-4, beta_end: float = 0.02) -> list[str]:
    """Held-out MSE below the target variance for the volume and waterline
    networks, and for the resistance network on its training hulls (on the
    held-out hulls it fails for some seeds at the benchmark's step counts);
    classifier accuracy above the majority share; denoiser noise MSE < 1."""
    out_dir = Path(out_dir)
    rows = read_rows(out_dir / "dataset" / "hulls.csv")
    normalize, _ = load_quantile_map(out_dir / "dataset" / "normalizer.txt")
    models = out_dir / "models"
    raw = np.array([[float(r[k]) for k in SHAPE_COLUMNS] for r in rows])
    label = np.array([r["feasible"] == "1" for r in rows])
    norm = normalize(raw)
    fails = []

    def below_variance(name, x, y):
        pred = Mlp.load(models / f"{name}.txt")(x)
        mse, var = float(np.mean((pred - y) ** 2)), float(np.var(y))
        if not mse < var:
            fails.append(f"{name}: held-out MSE {mse:.4g} >= target variance {var:.4g}")

    feas = np.flatnonzero(label)
    held = feas[holdout_indices(feas.size, holdout_fraction, seed)]
    marks = np.arange(1, 101)
    rng = np.random.default_rng(seed)

    # volume and waterline at every draft mark of the held-out hulls
    xg = np.array([np.append(norm[i], k / 100) for i in held for k in marks])
    logv = np.array([math.log10(float(rows[i][f"vol_{k:03d}"]))
                     for i in held for k in marks])
    wl = np.array([float(rows[i][f"wl_{k:03d}"]) for i in held for k in marks])
    below_variance("volume", xg, logv)
    below_variance("waterline", xg, wl)

    # total-resistance coefficient at the stored grid nodes of the training hulls
    xr, ct = [], []
    for i in sorted(set(feas) - set(held)):
        r = rows[i]
        for col, tstar, fn in grid_nodes(r.keys()):
            k = round(tstar * 100)
            log_loa = rng.uniform(0.47, 2.65)
            loa = 10.0 ** log_loa
            w = float(r[f"wl_{k:03d}"])
            speed = fn * math.sqrt(G * w * loa)
            rf = ittc_friction(speed, loa, w, float(r[f"area_{k:03d}"]))
            rw = float(r[col]) * loa**3
            ct.append(math.log10((rw + rf) / (0.5 * RHO * speed**2 * loa**2)))
            xr.append(np.concatenate([norm[i], [tstar, fn, log_loa]]))
    below_variance("resistance", np.array(xr), np.array(ct))

    prob = Mlp.load(models / "classifier.txt")(norm)
    acc = float(np.mean((prob >= 0.5) == label))
    majority = max(label.mean(), 1.0 - label.mean())
    if not acc > majority:
        fails.append(f"classifier: accuracy {acc:.3f} <= majority share {majority:.3f}")

    # denoiser: noise-prediction MSE on held-out hulls at random timesteps
    cond_w, cond_b, mlp, embed_dim, steps = load_denoiser(models / "denoiser.txt")
    scale = 1000.0 / steps
    abar = np.cumprod(1.0 - np.linspace(scale * beta_start, scale * beta_end, steps))
    idx = np.repeat(held, 64)
    t = rng.integers(1, steps + 1, idx.size)
    k = rng.integers(1, 101, idx.size)
    eps = rng.standard_normal((idx.size, norm.shape[1]))
    ab = abar[t - 1][:, None]
    xt = np.sqrt(ab) * norm[idx] + np.sqrt(1.0 - ab) * eps
    cond = np.column_stack([k / 100, [math.log10(float(rows[i][f"vol_{kk:03d}"]))
                                      for i, kk in zip(idx, k)],
                            raw[idx, 0], raw[idx, 1]])
    half = embed_dim // 2
    ang = t[:, None] * np.exp(-math.log(10000.0) * np.arange(half) / half)
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1) + cond @ cond_w.T + cond_b
    mse = float(np.mean((mlp(np.hstack([xt, emb])) - eps) ** 2))
    if not mse < 1.0:
        fails.append(f"denoiser: held-out noise MSE {mse:.4f} >= 1")
    return fails
