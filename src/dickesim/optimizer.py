"""Random-restart Nelder-Mead search over flattened pulse parameters.

The search draws random starting points inside the box constraints, then for
each start runs a configurable number of Nelder-Mead rounds in which a random
subset of coordinates is frozen (locked at their current values) so that only
``free_param_budget`` coordinates move at a time.  Everything is driven by
per-restart RNG streams seeded with the pair (seed, restart index), so
results do not depend on execution order and different seeds give
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import DickeSpace, QuantumState, _check_same_space, _fidelity_with_vector
from .gates import (
    DEFAULT_CONVENTIONS,
    GateConventions,
    PulseSequence,
    propagate,
    unflatten_params,
)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search hyperparameters; bounds are symmetric boxes per coordinate."""

    max_steps: int = 3
    restarts: int = 50
    freeze_rounds: int = 2
    free_param_budget: int = 20
    nm_max_iters: int = 2000
    nm_tolerance: float = 1e-9
    angle_bound: float = np.pi
    squeeze_bound: float = np.pi
    seed: int = 0
    target_infidelity: float = 0.0  # stop a search early once reached
    conventions: GateConventions = DEFAULT_CONVENTIONS

    def bounds(self, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        per_step = [self.angle_bound] * 3 + [self.squeeze_bound] * 2
        upper = np.array(per_step * n_steps + [self.angle_bound] * 3)
        return -upper, upper


@dataclass
class OptimizationRun:
    """Best-so-far record of a search; history rows are (restart, round, best_fidelity)."""

    config: OptimizerConfig
    space: DickeSpace
    n_steps: int
    best_params: np.ndarray
    best_fidelity: float
    history: List[Tuple[int, int, float]] = field(default_factory=list)
    rng_trace: str = ""

    @property
    def best_sequence(self) -> PulseSequence:
        return unflatten_params(self.space, self.n_steps, self.best_params)


def objective(params, space: DickeSpace, target: QuantumState,
              conventions: GateConventions = DEFAULT_CONVENTIONS) -> float:
    """1 - fidelity(sequence(params) applied to |0>, target)."""
    params = np.asarray(params, dtype=float).reshape(-1)
    if (params.size - 3) % 5:
        raise ValueError(f"parameter vector length {params.size} is not 5M + 3")
    return make_objective(space, target, (params.size - 3) // 5, conventions)(params)


def make_objective(space: DickeSpace, target: QuantumState, n_steps: int,
                   conventions: GateConventions = DEFAULT_CONVENTIONS) -> Callable:
    """Closure over a fixed target for repeated evaluations of a flat
    parameter vector of length 5 * n_steps + 3."""
    _check_same_space(space, target.space)
    ground = QuantumState.ground(space).amplitudes
    expected = 5 * n_steps + 3

    def f(params: np.ndarray) -> float:
        if len(params) != expected:
            raise ValueError(f"parameter vector length {len(params)}, expected {expected}")
        return 1.0 - _fidelity_with_vector(propagate(space, params, conventions, ground), target)

    return f


def nelder_mead(f: Callable, x0, frozen_mask, lower, upper,
                max_iters: int = 2000, tolerance: float = 1e-9) -> Tuple[np.ndarray, float]:
    """Nelder-Mead on the unfrozen coordinates with box clamping.

    Standard coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2).
    Frozen coordinates stay bit-identical to x0.  Terminates when the
    simplex diameter drops below ``tolerance`` or after ``max_iters``
    iterations; the returned value never exceeds f(x0).
    """
    x0 = np.asarray(x0, dtype=float)
    frozen = np.asarray(frozen_mask, dtype=bool)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if frozen.all():
        raise ValueError("at least one coordinate must stay unfrozen")
    if np.any(x0 < lower - 1e-12) or np.any(x0 > upper + 1e-12):
        raise ValueError("x0 violates the box constraints")
    free = np.flatnonzero(~frozen)

    def embed(z: np.ndarray) -> np.ndarray:
        x = x0.copy()
        x[free] = np.clip(z, lower[free], upper[free])
        return x

    fz = lambda z: f(embed(z))
    z0 = x0[free]
    n = z0.size
    simplex = [z0]
    for idx in range(n):
        step = 0.1 * (upper[free][idx] - lower[free][idx])
        vert = z0.copy()
        vert[idx] = vert[idx] + step if vert[idx] + step <= upper[free][idx] else vert[idx] - step
        simplex.append(vert)
    simplex = np.asarray(simplex)
    values = np.asarray([fz(v) for v in simplex])

    for _ in range(max_iters):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if np.max(np.abs(simplex[1:] - simplex[0])) < tolerance:
            break
        centroid = simplex[:-1].mean(axis=0)
        clamp = lambda z: np.clip(z, lower[free], upper[free])
        reflected = clamp(centroid + (centroid - simplex[-1]))
        f_r = fz(reflected)
        if f_r < values[0]:
            expanded = clamp(centroid + 2.0 * (centroid - simplex[-1]))
            f_e = fz(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = clamp(centroid + 0.5 * (simplex[-1] - centroid))
            f_c = fz(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [fz(v) for v in simplex[1:]]

    best = int(np.argmin(values))
    return embed(simplex[best]), float(values[best])


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    """Independent stream per (seed, restart); negative seeds wrap to 64 bits."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(restart)])


def random_restart_search(space: DickeSpace, target: QuantumState,
                          config: OptimizerConfig, n_steps: int,
                          initial_params: Optional[np.ndarray] = None,
                          on_improvement: Optional[Callable] = None) -> OptimizationRun:
    """Global search: random starts, frozen-subset Nelder-Mead rounds.

    ``initial_params`` seeds the incumbent (used when growing a sequence);
    restarts are numbered from 0 and tie-breaks go to the lower index by
    virtue of strict improvement tracking.  With restarts = 0 only the
    incumbent (default: all-zero identity sequence) is evaluated.
    """
    n_params = 5 * n_steps + 3
    lower, upper = config.bounds(n_steps)
    f = make_objective(space, target, n_steps, config.conventions)

    incumbent = np.zeros(n_params) if initial_params is None else np.asarray(
        initial_params, dtype=float).copy()
    if incumbent.size != n_params:
        raise ValueError(f"initial_params length {incumbent.size}, expected {n_params}")
    best_params = incumbent
    best_value = f(incumbent)
    history: List[Tuple[int, int, float]] = [(-1, -1, 1.0 - best_value)]
    if on_improvement is not None:
        on_improvement(best_params, 1.0 - best_value)

    budget = min(config.free_param_budget, n_params)
    for restart in range(config.restarts):
        rng = _restart_rng(config.seed, restart)
        x = rng.uniform(lower, upper)
        for round_idx in range(config.freeze_rounds):
            frozen = np.ones(n_params, dtype=bool)
            frozen[rng.permutation(n_params)[:budget]] = False
            x, value = nelder_mead(f, x, frozen, lower, upper,
                                   config.nm_max_iters, config.nm_tolerance)
            if value < best_value:
                best_value, best_params = value, x.copy()
                if on_improvement is not None:
                    on_improvement(best_params, 1.0 - best_value)
            history.append((restart, round_idx, 1.0 - best_value))
        if best_value <= config.target_infidelity:
            break

    return OptimizationRun(config=config, space=space, n_steps=n_steps,
                           best_params=best_params,
                           best_fidelity=1.0 - best_value, history=history,
                           rng_trace=f"default_rng([seed, restart]), seed={config.seed}, "
                                     f"restarts=0..{config.restarts - 1}")


def grow_sequence(run: OptimizationRun, insert_position: int) -> OptimizationRun:
    """Insert a zero-initialized (identity) step, preserving the objective.

    The returned run has M+1 steps and the same best fidelity; optimization
    continues from the grown parameter vector via another search.
    """
    if not 0 <= insert_position <= run.n_steps:
        raise ValueError(f"insert position {insert_position} outside 0..{run.n_steps}")
    grown = np.insert(run.best_params, 5 * insert_position, np.zeros(5))
    history = list(run.history) + [(-1, run.n_steps + 1, run.best_fidelity)]
    return OptimizationRun(config=run.config, space=run.space,
                           n_steps=run.n_steps + 1, best_params=grown,
                           best_fidelity=run.best_fidelity, history=history,
                           rng_trace=run.rng_trace)


def grown_search(space: DickeSpace, target: QuantumState, config: OptimizerConfig,
                 start_steps: Optional[int] = None, max_steps: Optional[int] = None,
                 insert_position: Optional[int] = None,
                 on_improvement: Optional[Callable] = None) -> OptimizationRun:
    """Incremental schedule: search at M = start_steps, then grow one identity
    step at a time (default: append at the end) and keep searching."""
    if max_steps is None:
        max_steps = config.max_steps
    if start_steps is None:
        start_steps = min(2, max_steps)
    run = random_restart_search(space, target, config, start_steps,
                                on_improvement=on_improvement)
    while run.n_steps < max_steps and run.best_fidelity < 1.0 - config.target_infidelity:
        pos = run.n_steps if insert_position is None else insert_position
        run = grow_sequence(run, pos)
        cont = random_restart_search(space, target, config, run.n_steps,
                                     initial_params=run.best_params,
                                     on_improvement=on_improvement)
        cont.history = run.history + cont.history
        run = cont
    return run
