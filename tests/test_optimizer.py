import numpy as np
import pytest

from dickesim import (
    DickeSpace,
    OptimizerConfig,
    QuantumState,
    apply_sequence,
    grow_sequence,
    nelder_mead,
    objective,
    random_restart_search,
    unflatten_params,
)
from dickesim.optimizer import _restart_rng, grown_search, make_objective


def random_target(space, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return QuantumState.from_amplitudes(space, vec, normalize=True)


def test_objective_zero_params_ground_target():
    space = DickeSpace(4)
    assert objective(np.zeros(18), space, QuantumState.ground(space)) == pytest.approx(0.0)


def test_objective_zero_params_orthogonal_target():
    space = DickeSpace(4)
    top = QuantumState.basis_state(space, 4)
    assert objective(np.zeros(18), space, top) == pytest.approx(1.0)


def test_objective_range_and_length_check():
    space = DickeSpace(3)
    rng = np.random.default_rng(0)
    target = random_target(space, 100)
    for _ in range(10):
        val = objective(rng.uniform(-np.pi, np.pi, 13), space, target)
        assert 0.0 <= val <= 1.0
    with pytest.raises(ValueError):
        objective(np.zeros(12), space, target)


def test_nelder_mead_quadratic_bowl():
    f = lambda x: float(np.sum((x - 0.3) ** 2))
    n = 6
    x, fx = nelder_mead(f, np.zeros(n), np.zeros(n, dtype=bool),
                        -np.ones(n), np.ones(n), max_iters=4000, tolerance=1e-10)
    assert np.max(np.abs(x - 0.3)) < 1e-6
    assert fx < 1e-10


def test_nelder_mead_freezing_contract():
    f = lambda x: float(np.sum((x - 0.3) ** 2))
    x0 = np.array([0.05, 0.0, 0.0, 0.0])
    frozen = np.array([True, False, False, False])
    x, _ = nelder_mead(f, x0, frozen, -np.ones(4), np.ones(4))
    assert x[0] == x0[0]  # bit identical
    assert np.max(np.abs(x[1:] - 0.3)) < 1e-6


def test_nelder_mead_clamps_to_box():
    # unconstrained minimum at 2.0, box caps at 1.0
    f = lambda x: float(np.sum((x - 2.0) ** 2))
    x, fx = nelder_mead(f, np.zeros(3), np.zeros(3, dtype=bool),
                        -np.ones(3), np.ones(3))
    assert np.allclose(x, 1.0, atol=1e-8)
    assert fx == pytest.approx(3.0, abs=1e-6)


def test_nelder_mead_never_worse_than_start():
    rng = np.random.default_rng(3)
    f = lambda x: float(np.cos(3 * x[0]) + np.sum(x ** 2))
    for _ in range(5):
        x0 = rng.uniform(-1, 1, size=4)
        _, fx = nelder_mead(f, x0, np.zeros(4, dtype=bool),
                            -np.ones(4), np.ones(4), max_iters=50)
        assert fx <= f(x0) + 1e-15


def test_nelder_mead_rejects_all_frozen():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, np.zeros(2), np.ones(2, dtype=bool),
                    -np.ones(2), np.ones(2))


def test_restarts_zero_evaluates_identity_sequence():
    space = DickeSpace(4)
    target = QuantumState.ground(space)
    config = OptimizerConfig(restarts=0, seed=1)
    run = random_restart_search(space, target, config, n_steps=2)
    assert run.best_fidelity == pytest.approx(1.0)
    assert np.all(run.best_params == 0)


def test_search_determinism():
    space = DickeSpace(3)
    target = random_target(space, 100)
    config = OptimizerConfig(restarts=3, freeze_rounds=2, nm_max_iters=120, seed=42)
    run1 = random_restart_search(space, target, config, n_steps=2)
    run2 = random_restart_search(space, target, config, n_steps=2)
    assert np.array_equal(run1.best_params, run2.best_params)
    assert run1.best_fidelity == run2.best_fidelity
    assert run1.history == run2.history


def test_search_history_monotone():
    space = DickeSpace(3)
    target = random_target(space, 100)
    config = OptimizerConfig(restarts=4, freeze_rounds=2, nm_max_iters=150, seed=9)
    run = random_restart_search(space, target, config, n_steps=2)
    fids = [h[2] for h in run.history]
    assert all(b >= a for a, b in zip(fids, fids[1:]))
    assert run.best_fidelity == fids[-1]


def test_freezing_respects_budget():
    space = DickeSpace(3)
    target = random_target(space, 100)
    config = OptimizerConfig(restarts=1, freeze_rounds=1, free_param_budget=4,
                             nm_max_iters=60, seed=7)
    run = random_restart_search(space, target, config, n_steps=2)
    assert run.best_fidelity >= 0  # smoke: budget < n_params works


def test_grow_sequence_identity_insertion():
    space = DickeSpace(4)
    target = random_target(space, 100)
    config = OptimizerConfig(restarts=2, freeze_rounds=1, nm_max_iters=150, seed=11)
    run = random_restart_search(space, target, config, n_steps=2)
    before = objective(run.best_params, space, target)
    for pos in (0, 1, 2):
        grown = grow_sequence(run, pos)
        assert grown.n_steps == 3
        after = objective(grown.best_params, space, target)
        assert after == pytest.approx(before, abs=1e-12)
        assert grown.best_fidelity == run.best_fidelity


def test_grow_sequence_validates_position():
    space = DickeSpace(3)
    config = OptimizerConfig(restarts=0, seed=0)
    run = random_restart_search(space, QuantumState.ground(space), config, n_steps=1)
    with pytest.raises(ValueError):
        grow_sequence(run, 5)


def test_grown_search_reaches_reachable_target():
    # target generated by a 2-step sequence is recoverable by the growth loop
    space = DickeSpace(4)
    rng = np.random.default_rng(31)
    true_params = rng.uniform(-np.pi, np.pi, 13)
    seq = unflatten_params(space, 2, true_params)
    target = apply_sequence(seq, QuantumState.ground(space))
    config = OptimizerConfig(restarts=12, freeze_rounds=2, nm_max_iters=1500,
                             nm_tolerance=1e-9, seed=5, target_infidelity=1e-4)
    run = grown_search(space, target, config, start_steps=2, max_steps=3)
    assert run.best_fidelity >= 0.99


def test_make_objective_matches_objective():
    space = DickeSpace(4)
    target = random_target(space, 101)
    f = make_objective(space, target, 2)
    rng = np.random.default_rng(1)
    params = rng.uniform(-1, 1, 13)
    assert f(params) == pytest.approx(objective(params, space, target), abs=1e-15)


def test_seeds_draw_independent_restart_starts():
    lower, upper = OptimizerConfig().bounds(3)

    def starts(seed):
        return {tuple(_restart_rng(seed, r).uniform(lower, upper)) for r in range(50)}

    assert len(starts(0)) == 50
    assert not starts(0) & starts(1)
