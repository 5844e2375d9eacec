"""Random-restart Nelder-Mead search over flattened pulse parameters.

The search draws random starting points inside the box constraints, then for
each start runs a configurable number of Nelder-Mead rounds over every
coordinate, each round starting where the previous one ended.  Start points
come from per-restart RNG streams seeded with the pair (seed, restart index),
so results do not depend on execution order and different seeds give
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import DickeSpace, QuantumState, _check_same_space, _fidelity_with_vector
from .gates import DEFAULT_CONVENTIONS, GateConventions, _plan

PARAM_BOUND = np.pi  # every angle and squeeze strength lies in [-pi, pi]


@dataclass(frozen=True)
class OptimizerConfig:
    """Search hyperparameters; every coordinate is boxed by +-PARAM_BOUND."""

    max_steps: int = 3
    restarts: int = 50
    freeze_rounds: int = 2  # Nelder-Mead rounds per restart
    nm_max_iters: int = 2000
    nm_tolerance: float = 1e-9
    seed: int = 0
    target_infidelity: float = 0.0  # stop a search early once reached
    conventions: GateConventions = DEFAULT_CONVENTIONS

    def bounds(self, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        upper = np.full(5 * n_steps + 3, PARAM_BOUND)
        return -upper, upper


@dataclass
class OptimizationRun:
    """Best-so-far record of a search; history rows are (restart, round,
    best_fidelity).  ``objective_evaluations`` counts every objective call
    the search made, summed over growth."""

    n_steps: int
    best_params: np.ndarray
    best_fidelity: float
    history: List[Tuple[int, int, float]] = field(default_factory=list)
    objective_evaluations: int = 0


def make_objective(space: DickeSpace, target: QuantumState, n_steps: int,
                   conventions: GateConventions = DEFAULT_CONVENTIONS) -> Callable:
    """Closure over a fixed target: 1 - fidelity(sequence(params) applied to
    |0>, target) for a flat parameter vector of length 5 * n_steps + 3.  It
    binds the propagation plan of ``space``, ``conventions`` and ``n_steps``
    once, so an evaluation is a length check, the kernel and the fidelity.
    It runs bare: no intermediate overflows inside the box +-PARAM_BOUND, and
    :func:`random_restart_search` evaluates its incumbent under ``np.errstate``."""
    _check_same_space(space, target.space)
    ground = QuantumState.ground(space).amplitudes
    expected = 5 * n_steps + 3
    run = _plan(space, conventions, n_steps)

    def f(params: np.ndarray) -> float:
        if len(params) != expected:
            raise ValueError(f"parameter vector length {len(params)}, expected {expected}")
        return 1.0 - _fidelity_with_vector(run(params, ground, False, None), target)

    return f


def nelder_mead(f: Callable, x0, lower, upper,
                max_iters: int = 2000, tolerance: float = 1e-9,
                stop_value: Optional[float] = None) -> Tuple[np.ndarray, float]:
    """Nelder-Mead with box clamping.

    Standard coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2).
    Every evaluation gets a fresh array clamped to the box.  Terminates when
    the simplex diameter drops below ``tolerance``, after ``max_iters``
    iterations, or, when ``stop_value`` is given, as soon as the best vertex
    (the initial simplex included) has a value <= ``stop_value``; the
    returned value never exceeds f(x0).
    """
    z0 = np.asarray(x0, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if np.any(z0 < lo - 1e-12) or np.any(z0 > hi + 1e-12):
        raise ValueError("x0 violates the box constraints")
    clamp = lambda z: np.minimum(np.maximum(z, lo), hi)
    n = z0.size
    simplex = [z0]
    for idx in range(n):
        step = 0.1 * (hi[idx] - lo[idx])
        vert = z0.copy()
        vert[idx] = vert[idx] + step if vert[idx] + step <= hi[idx] else vert[idx] - step
        simplex.append(vert)
    simplex = np.asarray(simplex)
    values = np.asarray([f(clamp(v)) for v in simplex])

    for _ in range(max_iters):
        order = values.argsort(kind="stable")
        simplex, values = simplex[order], values[order]
        if stop_value is not None and values[0] <= stop_value:
            break
        if np.abs(simplex[1:] - simplex[0]).max() < tolerance:
            break
        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        reflected = clamp(centroid + (centroid - simplex[-1]))
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = clamp(centroid + 2.0 * (centroid - simplex[-1]))
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = clamp(centroid + 0.5 * (simplex[-1] - centroid))
            f_c = f(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [f(clamp(v)) for v in simplex[1:]]

    best = int(np.argmin(values))
    return clamp(simplex[best]), float(values[best])


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    """Independent stream per (seed, restart); negative seeds wrap to 64 bits."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(restart)])


def random_restart_search(space: DickeSpace, target: QuantumState,
                          config: OptimizerConfig, n_steps: int,
                          initial_params: Optional[np.ndarray] = None,
                          on_improvement: Optional[Callable] = None) -> OptimizationRun:
    """Global search: random starts, each refined by Nelder-Mead rounds.

    ``initial_params`` seeds the incumbent (used when growing or resuming);
    restarts are numbered from 0 and tie-breaks go to the lower index by
    virtue of strict improvement tracking.  With restarts = 0 only the
    incumbent (default: all-zero identity sequence) is evaluated.

    A positive ``config.target_infidelity`` ends the search where it is
    reached: an incumbent that already meets it runs no restart, each
    Nelder-Mead round stops at it, and no further round or restart follows.
    With ``target_infidelity = 0`` every round runs to ``nm_tolerance`` or
    ``nm_max_iters``, and the search stops after a restart only if the
    infidelity reached 0.
    """
    n_params = 5 * n_steps + 3
    lower, upper = config.bounds(n_steps)
    objective = make_objective(space, target, n_steps, config.conventions)
    evaluations = 0

    def f(params: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective(params)

    incumbent = np.zeros(n_params) if initial_params is None else np.asarray(
        initial_params, dtype=float).copy()
    if incumbent.size != n_params:
        raise ValueError(f"initial_params length {incumbent.size}, expected {n_params}")
    best_params = incumbent
    with np.errstate(over="ignore", invalid="ignore"):  # it may lie outside the box
        best_value = f(incumbent)
    history: List[Tuple[int, int, float]] = [(-1, -1, 1.0 - best_value)]
    if on_improvement is not None:
        on_improvement(best_params, 1.0 - best_value)

    goal = config.target_infidelity
    stop_value = goal if goal > 0 else None
    reached = lambda: stop_value is not None and best_value <= stop_value
    for restart in range(0 if reached() else config.restarts):
        x = _restart_rng(config.seed, restart).uniform(lower, upper)
        for round_idx in range(config.freeze_rounds):
            x, value = nelder_mead(f, x, lower, upper, config.nm_max_iters,
                                   config.nm_tolerance, stop_value)
            if value < best_value:
                best_value, best_params = value, x.copy()
                if on_improvement is not None:
                    on_improvement(best_params, 1.0 - best_value)
            history.append((restart, round_idx, 1.0 - best_value))
            if reached():
                break
        if best_value <= goal:
            break

    return OptimizationRun(n_steps=n_steps, best_params=best_params,
                           best_fidelity=1.0 - best_value, history=history,
                           objective_evaluations=evaluations)


def grown_search(space: DickeSpace, target: QuantumState, config: OptimizerConfig,
                 start_steps: int, initial_params: Optional[np.ndarray] = None,
                 on_improvement: Optional[Callable] = None) -> OptimizationRun:
    """The search schedule: search at M = start_steps from ``initial_params``
    (default: the identity), then insert one identity step before the final
    rotation and search again, until M = config.max_steps or the fidelity
    reaches 1 - config.target_infidelity.  Each growth adds the history row
    (-1, M + 1, fidelity); an identity step leaves the fidelity unchanged."""
    run = random_restart_search(space, target, config, start_steps,
                                initial_params=initial_params,
                                on_improvement=on_improvement)
    while run.n_steps < config.max_steps and run.best_fidelity < 1.0 - config.target_infidelity:
        grown = np.insert(run.best_params, -3, np.zeros(5))
        history = run.history + [(-1, run.n_steps + 1, run.best_fidelity)]
        evaluations = run.objective_evaluations
        run = random_restart_search(space, target, config, run.n_steps + 1,
                                    initial_params=grown, on_improvement=on_improvement)
        run.history = history + run.history
        run.objective_evaluations += evaluations
    return run
