from dataclasses import replace

import numpy as np
import pytest

from dickesim import (
    DickeSpace,
    OptimizerConfig,
    QuantumState,
    apply_sequence,
    grown_search,
    nelder_mead,
    random_restart_search,
    unflatten_params,
)
from dickesim import optimizer
from dickesim.optimizer import _restart_rng, make_objective


def random_target(space, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return QuantumState.from_amplitudes(space, vec, normalize=True)


def test_objective_zero_params_ground_target():
    space = DickeSpace(4)
    assert make_objective(space, QuantumState.ground(space), 3)(np.zeros(18)) == pytest.approx(0.0)


def test_objective_zero_params_orthogonal_target():
    space = DickeSpace(4)
    top = QuantumState.basis_state(space, 4)
    assert make_objective(space, top, 3)(np.zeros(18)) == pytest.approx(1.0)


def test_objective_range_and_length_check():
    space = DickeSpace(3)
    rng = np.random.default_rng(0)
    target = random_target(space, 100)
    f = make_objective(space, target, 2)
    for _ in range(10):
        val = f(rng.uniform(-np.pi, np.pi, 13))
        assert 0.0 <= val <= 1.0
    with pytest.raises(ValueError):
        f(np.zeros(12))


def test_nelder_mead_quadratic_bowl():
    f = lambda x: float(np.sum((x - 0.3) ** 2))
    n = 6
    x, fx = nelder_mead(f, np.zeros(n), -np.ones(n), np.ones(n), max_iters=4000,
                        tolerance=1e-10)
    assert np.max(np.abs(x - 0.3)) < 1e-6
    assert fx < 1e-10


def test_nelder_mead_clamps_to_box():
    # unconstrained minimum at 2.0, box caps at 1.0
    f = lambda x: float(np.sum((x - 2.0) ** 2))
    x, fx = nelder_mead(f, np.zeros(3), -np.ones(3), np.ones(3))
    assert np.allclose(x, 1.0, atol=1e-8)
    assert fx == pytest.approx(3.0, abs=1e-6)


def test_nelder_mead_never_worse_than_start():
    rng = np.random.default_rng(3)
    f = lambda x: float(np.cos(3 * x[0]) + np.sum(x ** 2))
    for _ in range(5):
        x0 = rng.uniform(-1, 1, size=4)
        _, fx = nelder_mead(f, x0, -np.ones(4), np.ones(4), max_iters=50)
        assert fx <= f(x0) + 1e-15


def test_nelder_mead_stop_value_ends_the_round():
    calls = []
    f = lambda x: calls.append(1) or float(np.sum((x - 0.3) ** 2))
    args = (np.zeros(6), -np.ones(6), np.ones(6), 4000, 1e-10)
    x_full, f_full = nelder_mead(f, *args)
    full_calls = len(calls)
    calls.clear()
    _, f_stop = nelder_mead(f, *args, stop_value=1e-3)
    assert f_stop <= 1e-3
    assert len(calls) < full_calls / 4
    x_none, f_none = nelder_mead(f, *args, stop_value=None)
    assert np.array_equal(x_none, x_full) and f_none == f_full
    # an initial simplex that already meets the goal costs no iteration
    calls.clear()
    nelder_mead(f, *args, stop_value=0.5)  # best initial vertex: 5 * 0.09 + 0.01
    assert len(calls) == 7


def test_restarts_zero_evaluates_identity_sequence():
    space = DickeSpace(4)
    target = QuantumState.ground(space)
    config = OptimizerConfig(restarts=0, seed=1)
    run = random_restart_search(space, target, config, n_steps=2)
    assert run.best_fidelity == pytest.approx(1.0)
    assert np.all(run.best_params == 0)


def test_zero_target_infidelity_stops_no_round():
    # the identity already scores infidelity 0 here; with no stop fidelity
    # set, the first restart still runs all its rounds, then the search ends
    space = DickeSpace(4)
    config = OptimizerConfig(restarts=3, freeze_rounds=2, nm_max_iters=40, seed=1)
    run = random_restart_search(space, QuantumState.ground(space), config, n_steps=1)
    assert [h[:2] for h in run.history] == [(-1, -1), (0, 0), (0, 1)]


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


def test_grown_search_identity_insertion():
    space = DickeSpace(4)
    target = random_target(space, 100)
    config = OptimizerConfig(restarts=2, freeze_rounds=1, nm_max_iters=150, seed=11)
    run = random_restart_search(space, target, config, n_steps=2)
    grown = grown_search(space, target, replace(config, restarts=0, max_steps=3), 2,
                         initial_params=run.best_params)
    assert grown.n_steps == 3
    # the identity step goes in before the final rotation
    assert np.array_equal(grown.best_params, np.insert(run.best_params, 10, np.zeros(5)))
    assert grown.best_fidelity == pytest.approx(run.best_fidelity, abs=1e-12)
    assert [h[:2] for h in grown.history] == [(-1, -1), (-1, 3), (-1, -1)]
    assert grown.history[1][2] == grown.history[0][2]


def test_objective_evaluations_count_every_call_over_growth(monkeypatch):
    space = DickeSpace(3)
    target = random_target(space, 100)
    calls = []

    def counting_objective(*args, **kwargs):
        f = make_objective(*args, **kwargs)
        return lambda params: calls.append(1) or f(params)

    monkeypatch.setattr(optimizer, "make_objective", counting_objective)
    config = OptimizerConfig(restarts=2, freeze_rounds=1, nm_max_iters=80, seed=3,
                             max_steps=2)
    run = grown_search(space, target, config, start_steps=1)
    assert run.n_steps == 2
    assert run.objective_evaluations == len(calls) > 2 * 80
    # deterministic, so it can sit in the byte-identical optimize record
    assert grown_search(space, target, config, start_steps=1).objective_evaluations \
        == run.objective_evaluations
    # restarts = 0 evaluates only the incumbent, once per sequence length
    assert grown_search(space, target, replace(config, restarts=0),
                        start_steps=0).objective_evaluations == 3


def test_grown_search_reaches_reachable_target():
    # target generated by a 2-step sequence is recoverable by the growth loop
    space = DickeSpace(4)
    rng = np.random.default_rng(31)
    true_params = rng.uniform(-np.pi, np.pi, 13)
    seq = unflatten_params(space, 2, true_params)
    target = apply_sequence(seq, QuantumState.ground(space))
    config = OptimizerConfig(restarts=12, freeze_rounds=2, nm_max_iters=1500,
                             nm_tolerance=1e-9, seed=5, target_infidelity=1e-4,
                             max_steps=3)
    run = grown_search(space, target, config, start_steps=2)
    assert run.best_fidelity >= 0.99


def test_criterion_07_work_is_pinned():
    # the search and the ten seeded targets of acceptance criterion 7
    space = DickeSpace(4)
    config = OptimizerConfig(restarts=50, freeze_rounds=1, nm_max_iters=1500,
                             nm_tolerance=1e-8, seed=314, target_infidelity=0.01)
    gen_rng = np.random.default_rng(1234)
    evaluations = 0
    for _ in range(10):
        target = apply_sequence(unflatten_params(space, 3, gen_rng.uniform(-np.pi, np.pi, 18)),
                                QuantumState.ground(space))
        evaluations += random_restart_search(space, target, config,
                                             n_steps=3).objective_evaluations
    assert evaluations == 2139


def test_seeds_draw_independent_restart_starts():
    lower, upper = OptimizerConfig().bounds(3)

    def starts(seed):
        return {tuple(_restart_rng(seed, r).uniform(lower, upper)) for r in range(50)}

    assert len(starts(0)) == 50
    assert not starts(0) & starts(1)
