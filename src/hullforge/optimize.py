"""NSGA-II with constrained domination, plus the hull design problem.

The genetic machinery is generic over the number of objectives (bounds,
evaluate).  Each nondominated sort builds Deb's constrained-domination
relation as one n x n boolean matrix (feasible beats infeasible, the
lower violation wins between infeasible points, Pareto domination
between feasible ones) and peels the fronts from its column counts.
Parents come from a binary tournament on the crowded comparison: lower
rank, then larger crowding distance.

The hull problem minimizes one objective, the surrogate total resistance
R_T at a test case's speed, constrained to the case's beam, depth and
volume targets plus the scheme's algebraic feasibility residuals.  The
objective uses the learned surrogates; the volume constraint uses the
exact geometric measure so constraint satisfaction is not itself at the
surrogate's mercy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TestCase
from .dataset import surrogate_total_resistance
from .errors import DomainError
from .geometry import HullParams, measure_at, validate
from .neural import MlpModel

SBX_ETA = 15.0
MUTATION_ETA = 20.0
CROSSOVER_PROB = 0.9
VOLUME_NZ, VOLUME_NX = 160, 192   # measure_at stations of the volume constraint


@dataclass
class Individual:
    x: np.ndarray                 # decision vector (normalized shape params)
    objectives: np.ndarray        # (m,) minimized; (1,) for the hull problem
    violation: float              # total positive constraint excess; 0 = feasible
    rank: int = -1
    crowding: float = 0.0


@dataclass(frozen=True)
class Problem:
    lower: np.ndarray
    upper: np.ndarray
    evaluate: callable            # x -> (objectives (m,), violation >= 0)


def fast_nondominated_sort(pop: list) -> list:
    """Assign ranks in place and return the fronts (lists of indices).

    ``dom[a, b]``: a constrained-dominates b.  Violations decide when both
    are known (>= 0) and one is positive; otherwise (both feasible, or a
    NaN) Pareto domination does.  Each next front lists its members in the
    order a pairwise count-down reaches them: by the position of their
    last dominator in the current front, then by index.
    """
    v = np.array([p.violation for p in pop], dtype=float)
    objs = np.array([p.objectives for p in pop], dtype=float)
    infeasible, known = v > 0.0, v >= 0.0
    by_violation = known[:, None] & known & (infeasible[:, None] | infeasible)
    pareto = (objs[:, None] <= objs).all(-1) & (objs[:, None] < objs).any(-1)
    dom = np.where(by_violation, v[:, None] < v, pareto)
    counts = dom.sum(0)
    fronts = []
    front = np.flatnonzero(counts == 0)
    while front.size:
        fronts.append(front.tolist())
        for p in fronts[-1]:
            pop[p].rank = len(fronts) - 1
        hits = dom[front]
        counts -= hits.sum(0)
        nxt = np.flatnonzero((counts == 0) & hits.any(0))
        last = len(front) - 1 - hits[::-1, nxt].argmax(0)
        front = nxt[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(pop: list, front: list) -> None:
    """Per-front crowding distances, written in place."""
    if not front:
        return
    objs = np.array([pop[i].objectives for i in front])
    dist = np.zeros(len(front))
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        col = objs[order, m]
        if col[-1] != col[0]:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / (col[-1] - col[0])
        dist[order[[0, -1]]] = math.inf
    for i, d in zip(front, dist):
        pop[i].crowding = float(d)


def _tournament(pop, rng) -> Individual:
    """Deb's crowded comparison: lower rank, then larger crowding.  A
    constrained dominator always sits in an earlier front."""
    i, j = rng.integers(0, len(pop), 2)
    a, b = pop[i], pop[j]
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    return a if a.crowding >= b.crowding else b


def sbx_crossover(x1, x2, lower, upper, rng):
    """Simulated binary crossover, per-variable, clamped to the box."""
    c1, c2 = x1.copy(), x2.copy()
    if rng.random() > CROSSOVER_PROB:
        return c1, c2
    for i in range(x1.size):
        if rng.random() > 0.5 or x1[i] == x2[i]:
            continue
        u = rng.random()
        beta = ((2 * u) ** (1 / (SBX_ETA + 1)) if u <= 0.5
                else (1 / (2 - 2 * u)) ** (1 / (SBX_ETA + 1)))
        a = 0.5 * ((1 + beta) * x1[i] + (1 - beta) * x2[i])
        b = 0.5 * ((1 - beta) * x1[i] + (1 + beta) * x2[i])
        c1[i] = np.clip(a, lower[i], upper[i])
        c2[i] = np.clip(b, lower[i], upper[i])
    return c1, c2


def polynomial_mutation(x, lower, upper, rng):
    """Deb's polynomial mutation with boundary-aware perturbation; each gene
    mutates with probability 1 / x.size."""
    y = x.copy()
    prob = 1.0 / x.size
    for i in range(x.size):
        if rng.random() > prob:
            continue
        span = upper[i] - lower[i]
        if span <= 0:
            continue
        d1 = (y[i] - lower[i]) / span
        d2 = (upper[i] - y[i]) / span
        u = rng.random()
        mpow = 1.0 / (MUTATION_ETA + 1.0)
        if u < 0.5:
            dq = (2 * u + (1 - 2 * u) * (1 - d1) ** (MUTATION_ETA + 1)) ** mpow - 1.0
        else:
            dq = 1.0 - (2 * (1 - u) + 2 * (u - 0.5) * (1 - d2) ** (MUTATION_ETA + 1)) ** mpow
        y[i] = np.clip(y[i] + dq * span, lower[i], upper[i])
    return y


def _evaluate(problem, x) -> Individual:
    objs, violation = problem.evaluate(x)
    if not violation >= 0.0:   # a NaN can close a domination cycle
        raise DomainError(f"constraint violation must be >= 0, got {violation!r}")
    return Individual(x=x, objectives=np.asarray(objs, dtype=float),
                      violation=float(violation))


def _select(pop, size):
    fronts = fast_nondominated_sort(pop)
    for front in fronts:
        crowding_distance(pop, front)
    chosen = []
    for front in fronts:
        if len(chosen) + len(front) <= size:
            chosen.extend(front)
        else:
            rest = sorted(front, key=lambda i: -pop[i].crowding)
            chosen.extend(rest[: size - len(chosen)])
            break
    return [pop[i] for i in chosen]


def nsga2(problem: Problem, pop_size: int, generations: int, seed: int,
          initial: np.ndarray | None = None, history: list | None = None) -> list:
    """Elitist NSGA-II; deterministic for a fixed seed.

    ``initial`` optionally seeds the first population (rows beyond
    pop_size are ignored; missing rows are drawn uniformly in the box).
    ``history`` (if given) collects per-generation summary dicts.
    """
    if pop_size < 4:
        raise DomainError("population must be >= 4")
    rng = np.random.default_rng(seed)
    lower, upper = problem.lower, problem.upper

    genomes = []
    if initial is not None:
        genomes = [np.clip(np.asarray(r, dtype=float), lower, upper)
                   for r in initial[:pop_size]]
    while len(genomes) < pop_size:
        genomes.append(rng.uniform(lower, upper))
    pop = [_evaluate(problem, g) for g in genomes]

    for gen in range(generations):
        fronts = fast_nondominated_sort(pop)
        for front in fronts:
            crowding_distance(pop, front)
        children = []
        while len(children) < pop_size:
            p1, p2 = _tournament(pop, rng), _tournament(pop, rng)
            c1, c2 = sbx_crossover(p1.x, p2.x, lower, upper, rng)
            children.append(polynomial_mutation(c1, lower, upper, rng))
            if len(children) < pop_size:
                children.append(polynomial_mutation(c2, lower, upper, rng))
        pop = _select(pop + [_evaluate(problem, c) for c in children], pop_size)
        if history is not None:
            history.append(population_summary(pop, gen))
    return pop


def population_summary(pop, gen: int) -> dict:
    """best_rt / mean_rt: the first objective over the feasible (else NaN)."""
    rt = np.array([p.objectives[0] for p in pop if p.violation == 0.0])
    return {"gen": gen, "n_feasible": rt.size,
            "best_rt": float(rt.min()) if rt.size else math.nan,
            "mean_rt": float(rt.mean()) if rt.size else math.nan,
            "mean_violation": float(np.mean([p.violation for p in pop]))}


# ---------------------------------------------------------------------------
# Hull design problem


def evaluate_individual(x_norm, case: TestCase, resistance: MlpModel,
                        waterline: MlpModel, normalizer):
    """Surrogate objective (R_T,) and total constraint violation.

    The draft is held at the case target, so t* = T / (depth_ratio * LOA)
    varies with the candidate's depth.  Violations: beam outside 2% of
    target, depth outside 1%, exact volume below 99% of target, any
    algebraic feasibility residual, and drafts past the deck.
    """
    x_norm = np.asarray(x_norm, dtype=float)
    shape = normalizer.denormalize(x_norm)
    params = HullParams(case.loa, shape)
    report = validate(params)
    violation = sum(res for _name, res in report.violations)

    beam = shape[0] * case.loa
    depth = shape[1] * case.loa
    violation += max(0.0, abs(beam - case.boa) / case.boa - 0.02)
    violation += max(0.0, abs(depth - case.depth) / case.depth - 0.01)

    tstar = case.draft / max(depth, 1e-9)
    if tstar > 1.0:
        violation += tstar - 1.0
        tstar = 1.0

    if report.feasible:
        vol = measure_at(params, tstar, nz=VOLUME_NZ, nx=VOLUME_NX)[0] * case.loa**3
        violation += max(0.0, 0.99 - vol / case.volume)

    r_t = surrogate_total_resistance(resistance, waterline, x_norm, tstar,
                                     case.speed, case.loa)
    return np.array([r_t]), violation


def make_hull_problem(case: TestCase, resistance: MlpModel, waterline: MlpModel,
                      normalizer) -> Problem:
    def evaluate(x):
        return evaluate_individual(x, case, resistance, waterline, normalizer)

    ones = np.ones(normalizer.dim)
    return Problem(lower=-ones, upper=ones, evaluate=evaluate)
