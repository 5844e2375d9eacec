import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import (
    DickeSpace,
    NotHermitianError,
    QuantumState,
    TargetKind,
    TargetSpec,
    build_splus,
    build_sx,
    build_sy,
    build_sz,
    fidelity,
    lie_closure,
    make_target,
    multipole_closure,
    oscillator_counterexample,
    synthesis_by_powers,
    trotter_commutator,
    trotter_commutator_error,
    trotter_sum,
    trotter_sum_error,
)
from dickesim.algebra import (
    ladder_norm_constant,
    oscillator_generators,
)
from dickesim.cli import main as cli_main
from dickesim.core import _hermitian_exp
from dickesim import algebra
from oracle import (
    closure_residual,
    lie_closure_sequential,
    spherical_tensor,
    synthesis_by_powers_dense,
)


def squeezing_rotation_generators(n):
    space = DickeSpace(n)
    sx, sy = build_sx(space), build_sy(space)
    return space, [sx, sy, sx @ sx, sy @ sy]


# --- Lie closure ------------------------------------------------------------

def test_closure_squeezing_rotations_n2():
    _, gens = squeezing_rotation_generators(2)
    report = lie_closure(gens)
    assert report.traceless_dimension == 8
    assert report.target_dimension == 8
    assert report.universal


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closure_squeezing_rotations_universal(n):
    _, gens = squeezing_rotation_generators(n)
    report = lie_closure(gens)
    assert report.universal
    assert report.traceless_dimension == (n + 1) ** 2 - 1


def test_closure_rotations_only_is_su2():
    for n in (2, 4, 6):
        space = DickeSpace(n)
        report = lie_closure([build_sx(space), build_sy(space)])
        assert report.traceless_dimension == 3
        assert not report.universal


def test_closure_order_and_mixing_invariance():
    space, gens = squeezing_rotation_generators(3)
    base = lie_closure(gens).traceless_dimension
    assert lie_closure(gens[::-1]).traceless_dimension == base
    # invertible real recombination of the generators spans the same algebra
    mats = list(gens)
    mixed = [
        mats[0] + 2 * mats[1],
        mats[1] - mats[2],
        0.5 * mats[2] + mats[3],
        mats[3] + mats[0],
    ]
    assert lie_closure(mixed).traceless_dimension == base


def test_closure_contains_quadratic_cross_terms():
    # the first commutator rung: S_yS_z + S_zS_y and friends lie in the span
    space, gens = squeezing_rotation_generators(4)
    report = lie_closure(gens)
    sx, sy, sz = build_sx(space), build_sy(space), build_sz(space)
    for a, b in ((sy, sz), (sx, sy), (sx, sz)):
        op = a @ b + b @ a
        assert closure_residual(report, op) < 1e-8


def _parity_bound(n):
    """dim u(d_even) + u(d_odd): S_x^2 and S_y^2 couple m only to m +- 2."""
    d_even = n // 2 + 1
    return d_even ** 2 + (n + 1 - d_even) ** 2


@pytest.mark.parametrize("n", [8, 10, 12])
def test_closure_two_squeezes_respect_parity(n):
    space = DickeSpace(n)
    sx, sy = build_sx(space), build_sy(space)
    report = lie_closure([sx @ sx, sy @ sy])
    assert not report.universal
    assert report.reached_dimension <= _parity_bound(n)


@pytest.mark.parametrize("n", [*range(2, 13), 16, 24])
def test_closure_squeezing_rotations_fills_exactly_u_d(n):
    _, gens = squeezing_rotation_generators(n)
    report = lie_closure(gens)
    assert report.reached_dimension == (n + 1) ** 2
    assert report.traceless_dimension == (n + 1) ** 2 - 1


def _oracle_dimension(mats, tol=1e-8):
    """Rank of stacked, normalized nested commutators i[g, x]: each round
    brackets every generator with an SVD basis of the span so far."""
    d = mats[0].shape[0]
    gens = [m / np.linalg.norm(m) for m in mats]
    rows, rank = list(gens), 0
    while True:
        stack = np.array([r.reshape(-1) for r in rows])
        real = np.hstack([stack.real, stack.imag])
        new_rank = int(np.linalg.matrix_rank(real, tol=tol))
        if new_rank == rank:
            return rank
        rank = new_rank
        vt = np.linalg.svd(real, full_matrices=False)[2][:rank]
        basis = [(v[:d * d] + 1j * v[d * d:]).reshape(d, d) for v in vt]
        rows = basis + [c / np.linalg.norm(c) for g in gens for b in basis
                        for c in [1j * (g @ b - b @ g)] if np.linalg.norm(c) > tol]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closure_matches_matrix_rank_oracle(n):
    space = DickeSpace(n)
    sx, sy = build_sx(space), build_sy(space)
    for mats in ([sx, sy, sx @ sx, sy @ sy], [sx @ sx, sy @ sy]):
        assert lie_closure(mats).reached_dimension == _oracle_dimension(mats)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), count=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
def test_closure_bounded_and_scale_invariant(d, count, seed, scales):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    mats = [h + h.conj().T for h in raw]
    report = lie_closure(mats)
    assert report.reached_dimension <= d * d
    scaled = lie_closure([s * m for s, m in zip(scales, mats)])
    assert scaled.reached_dimension == report.reached_dimension


def _outcome(report):
    return (report.reached_dimension, report.traceless_dimension, report.iterations,
            report.universal, report.artifact_count)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("squeezes", [True, False], ids=["squeezing-rotations", "rotations-only"])
def test_closure_matches_sequential_oracle_on_cli_sets(n, squeezes):
    _, gens = squeezing_rotation_generators(n)
    gens = gens if squeezes else gens[:2]
    assert _outcome(lie_closure(gens)) == _outcome(lie_closure_sequential(gens))


def _cubic_set(cutoff):
    ops = oscillator_generators(cutoff)
    return [*ops.values(), ops["x"] @ ops["x"] @ ops["x"]]


@pytest.mark.parametrize("gens", [
    *[pytest.param(list(oscillator_generators(c).values()), id=f"oscillator-{c}")
      for c in (8, 12, 16, 32)],
    *[pytest.param(_cubic_set(c), id=f"cubic-{c}") for c in (8, 12)],
])
def test_masked_closure_matches_sequential_oracle(gens):
    assert (_outcome(lie_closure(gens, artifact_mask=2))
            == _outcome(lie_closure_sequential(gens, artifact_mask=2)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), count=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_closure_matches_sequential_oracle_on_random_sets(d, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    mats = [h + h.conj().T for h in raw]
    assert _outcome(lie_closure(mats)) == _outcome(lie_closure_sequential(mats))


def test_packed_span_stays_orthonormal(monkeypatch):
    spans = []

    class Recorded(algebra._PackedSpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    monkeypatch.setattr(algebra, "_PackedSpan", Recorded)
    _, gens = squeezing_rotation_generators(24)
    assert lie_closure(gens).universal
    (span,) = spans
    rows = span._rows[:span.size]
    assert rows.shape == (625, 625)
    assert np.max(np.abs(rows @ rows.T - np.eye(625))) < 1e-12


def test_closure_basis_is_one_array_of_unit_directions():
    space, gens = squeezing_rotation_generators(3)
    basis = lie_closure(gens).basis
    assert basis.shape == (16, 4, 4) and basis.dtype == complex
    assert np.allclose(np.linalg.norm(basis, axis=(1, 2)), 1.0)
    assert np.allclose(basis, basis.conj().transpose(0, 2, 1))


def test_closure_margin_over_rank_tol():
    # the smallest admitted residual, relative to the candidate's norm; the
    # sequential oracle measures the same quantity
    _, gens = squeezing_rotation_generators(4)
    report = lie_closure(gens)
    assert report.min_admitted_residual > 1e-2
    assert report.min_admitted_residual == pytest.approx(
        lie_closure_sequential(gens).min_admitted_residual, rel=1e-9)
    assert lie_closure([np.zeros((2, 2))]).min_admitted_residual == np.inf


def test_closure_ignores_generator_scale_and_zero_generators():
    space = DickeSpace(4)
    sx, sy = build_sx(space), build_sy(space)
    report = lie_closure([1e-12 * sx, np.zeros_like(sx), 1e12 * sy])
    assert report.reached_dimension == 3


def test_closure_rejects_non_hermitian():
    space = DickeSpace(3)
    with pytest.raises(NotHermitianError):
        lie_closure([build_splus(space)])


# --- exact closure by multipole rank ----------------------------------------

def test_six_j_predicate_finds_a_nontrivial_zero():
    # {3 5 5; 3 3 3} = 0 although every triangle holds and 3 + 5 + 5 is odd,
    # so the parity rule alone would wrongly call (3, 5) a witness for rank 5
    assert not algebra._six_j_nonzero(3, 5, 5, 6)
    assert algebra._six_j_nonzero(3, 4, 5, 6) and algebra._six_j_nonzero(2, 5, 5, 6)
    assert not algebra._six_j_nonzero(1, 1, 3, 6)  # triangle rule
    assert not algebra._six_j_nonzero(1, 7, 7, 6)  # rank above 2j


@settings(max_examples=80, deadline=None)
@given(case=st.integers(1, 60).flatmap(
    lambda two_j: st.tuples(st.just(two_j), st.lists(st.integers(0, two_j),
                                                     min_size=3, max_size=3))))
def test_six_j_predicate_is_symmetric_in_its_ranks(case):
    two_j, ranks = case
    assert len({algebra._six_j_nonzero(*perm, two_j)
                for perm in itertools.permutations(ranks)}) == 1


@pytest.mark.parametrize("two_j", range(1, 13))
def test_rank_witness_matches_bracket_projection(two_j):
    # the rank-k part of the bracket of generic elements of the full ranks k1
    # and k2, with T_kq built from the oracle's Clebsch-Gordan coefficients,
    # is nonzero exactly when (k1, k2) is a witness pair for k
    space = DickeSpace(two_j)
    blocks = [np.array([spherical_tensor(space, k, q) for q in range(-k, k + 1)])
              for k in range(two_j + 1)]
    rng = np.random.default_rng(two_j)
    left, right = ([np.tensordot(rng.normal(size=len(b)) + 1j * rng.normal(size=len(b)), b, 1)
                    for b in blocks] for _ in range(2))
    for k1, k2 in itertools.product(range(1, two_j + 1), repeat=2):
        a, b = left[k1], right[k2]
        bracket = a @ b - b @ a
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        for k in range(1, two_j + 1):
            part = np.linalg.norm(np.tensordot(blocks[k].conj(), bracket, ([1, 2], [0, 1])))
            witness = ((k1 + k2 + k) % 2 == 1 and abs(k1 - k2) <= k <= k1 + k2
                       and algebra._six_j_nonzero(k1, k2, k, two_j))
            assert (part > 1e-9 * scale) == witness, (k1, k2, k, part / scale)


@pytest.mark.parametrize("n", [*range(1, 17), 24])
@pytest.mark.parametrize("squeezes", [True, False], ids=["squeezing-rotations", "rotations-only"])
def test_multipole_closure_matches_span_closure(n, squeezes):
    _, gens = squeezing_rotation_generators(n)
    exact = multipole_closure(DickeSpace(n), squeezing=squeezes)
    span = lie_closure(gens if squeezes else gens[:2])
    fields = ("reached_dimension", "traceless_dimension", "target_dimension", "universal",
              "generator_count")
    assert [getattr(exact, f) for f in fields] == [getattr(span, f) for f in fields]


@pytest.mark.parametrize("n, rounds", [(1, 0), (2, 0), (4, 2), (8, 3), (10, 4), (32, 5),
                                       (40, 6), (400, 9)])
def test_multipole_closure_report(n, rounds):
    report = multipole_closure(DickeSpace(n), squeezing=True)
    assert report.universal and report.missing_rank is None
    assert report.ranks == tuple(range(1, n + 1)) and report.iterations == rounds
    assert report.traceless_dimension == report.target_dimension == (n + 1) ** 2 - 1
    assert report.basis.size == 0 and report.min_admitted_residual == np.inf
    assert report.rank_tolerance == 0.0
    rotations = multipole_closure(DickeSpace(n), squeezing=False)
    assert rotations.ranks == (1,) and rotations.traceless_dimension == 3
    assert rotations.missing_rank == (None if n == 1 else 2)
    assert rotations.iterations == (0 if n == 1 else 1)


# --- oscillator contrast ----------------------------------------------------

def test_truncated_oscillator_commutator_structure():
    ops = oscillator_generators(12)
    x, p = ops["x"], ops["p"]
    comm = x @ p - p @ x
    # canonical i*I in the bulk, corrupted only at the truncation corner
    assert np.allclose(comm[:-1, :-1], 1j * np.eye(11), atol=1e-12)
    assert abs(comm[-1, -1] - 1j * (1 - 12)) < 1e-10


@pytest.mark.parametrize("cutoff", [8, 16])
def test_oscillator_closure_stays_gaussian(cutoff):
    report = oscillator_counterexample(cutoff)
    assert report.reached_dimension == 6  # x, p, x^2, p^2, s, identity
    assert report.traceless_dimension == 5
    assert not report.universal
    assert report.artifact_count > 0


def test_oscillator_closure_grows_with_cubic_generator():
    dims = []
    for cutoff in (8, 12):
        ops = oscillator_generators(cutoff)
        x3 = ops["x"] @ ops["x"] @ ops["x"]
        report = oscillator_counterexample(cutoff, extra_generators=[x3])
        dims.append(report.reached_dimension)
        assert report.reached_dimension > 6
    assert dims[1] > dims[0]  # cutoff-dependent, unlike the Gaussian algebra


@pytest.mark.parametrize("cutoff", [8, 12, 16, 32])
def test_oscillator_closure_counts_are_pinned(cutoff):
    report = oscillator_counterexample(cutoff)
    assert (report.reached_dimension, report.artifact_count, report.iterations) == (6, 23, 2)


@pytest.mark.parametrize("cutoff", [8, 12])
def test_oscillator_cubic_closure_stays_inside_mask(cutoff):
    # the rank test sees only the unmasked (cutoff - 2)-wide block
    ops = oscillator_generators(cutoff)
    x3 = ops["x"] @ ops["x"] @ ops["x"]
    report = oscillator_counterexample(cutoff, extra_generators=[x3])
    assert report.reached_dimension <= (cutoff - 2) ** 2


# --- Trotter formulas -------------------------------------------------------

def test_trotter_sum_commuting_case_exact():
    space = DickeSpace(4)
    sz = build_sz(space)
    for k in (1, 3, 10):
        assert trotter_sum_error(sz, sz, 1.7, k) < 1e-12


def test_trotter_sum_first_order_ratio():
    # direct computation oracle: with error ~ C/k, err(k=10)/err(k=20) ~ 2
    space = DickeSpace(2)
    sx, sy = build_sx(space), build_sy(space)
    e10 = trotter_sum_error(sx, sy, 1.0, 10)
    e20 = trotter_sum_error(sx, sy, 1.0, 20)
    assert 1.8 <= e10 / e20 <= 2.2


def test_trotter_sum_monotone_convergence():
    space = DickeSpace(4)
    sx, sy = build_sx(space), build_sy(space)
    a = sx @ sx
    errors = [trotter_sum_error(a, sy, 1.0, k) for k in (4, 8, 16, 32, 64, 128)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


def test_trotter_sum_slope():
    space = DickeSpace(4)
    sx, sy = build_sx(space), build_sy(space)
    ks = np.array([8, 16, 32, 64])
    errors = [trotter_sum_error(sx @ sx, sy, 1.0, k) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(errors), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_trotter_commutator_zero_time_is_identity():
    space = DickeSpace(3)
    sx, sy = build_sx(space), build_sy(space)
    u = trotter_commutator(sx @ sx, sy, 0.0, 7)
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_trotter_commutator_converges_to_hermitian_generator_unitary():
    # the k-fold group commutator approaches exp(-i t H) with H = i[B, A]
    space = DickeSpace(4)
    sx, sy = build_sx(space), build_sy(space)
    a, b = sx @ sx, sy
    errors = [trotter_commutator_error(a, b, 0.5, k) for k in (8, 32, 128, 512)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 0.06
    # square-root error scaling of the plain group-commutator product
    slope = np.polyfit(np.log([8, 32, 128, 512]), np.log(errors), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_trotter_commutator_su2_target():
    # [S_y, S_x] = -i S_z, so the product approximates exp(-i t S_z)
    space = DickeSpace(2)
    sx, sy = build_sx(space), build_sy(space)
    approx = trotter_commutator(sx, sy, 0.8, 4096)
    exact = _hermitian_exp(build_sz(space), -1j * 0.8)
    assert np.max(np.abs(approx - exact)) < 0.05


def test_trotter_rejects_bad_inputs():
    space = DickeSpace(3)
    sx = build_sx(space)
    with pytest.raises(NotHermitianError):
        trotter_sum(build_splus(space), sx, 1.0, 4)
    with pytest.raises(ValueError):
        trotter_sum(sx, sx, 1.0, 0)
    with pytest.raises(ValueError, match="square shape"):
        trotter_sum(sx, build_sx(DickeSpace(4)), 1.0, 4)
    with pytest.raises(ValueError):
        trotter_commutator(sx, sx, -1.0, 4)


# --- synthesis by powers ----------------------------------------------------

def test_synthesis_ground_target_is_exact():
    space = DickeSpace(4)
    state, err = synthesis_by_powers(space, QuantumState.ground(space), 0.05)
    assert err < 1e-12
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_synthesis_matches_direct_exponential_product():
    # independent oracle: same ladder product via scipy.linalg.expm
    from scipy.linalg import expm

    space = DickeSpace(3)
    rng = np.random.default_rng(17)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec[0] += 2.0
    target = QuantumState.from_amplitudes(space, vec, normalize=True)
    state, err = synthesis_by_powers(space, target, 0.05)

    amps = target.amplitudes
    sp = build_splus(space)
    psi = QuantumState.ground(space).amplitudes.copy()
    power = np.eye(4, dtype=complex)
    m = 20
    for n in range(1, 4):
        power = power @ sp
        ratio = amps[n] / (amps[0] * ladder_norm_constant(3, n))
        alpha = ratio / m
        u = expm(alpha * power - np.conj(alpha) * power.conj().T)
        psi = np.linalg.matrix_power(u, m) @ psi
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(psi - state.amplitudes)) < 1e-10
    assert err == pytest.approx(1 - abs(np.vdot(psi, amps)) ** 2, abs=1e-10)


def test_synthesis_error_vanishes_for_weak_targets():
    # the construction is first order in the excited amplitudes: quadratic
    # error decay as the target approaches |0>
    space = DickeSpace(3)
    rng = np.random.default_rng(23)
    direction = rng.normal(size=3) + 1j * rng.normal(size=3)
    errors = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        vec = np.concatenate([[1.0], eps * direction])
        target = QuantumState.from_amplitudes(space, vec, normalize=True)
        _, err = synthesis_by_powers(space, target, 0.02)
        errors.append(err)
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3
    # quadratic-or-better decay per halving of the excitation weight
    assert errors[-1] < errors[0] / 30


def test_synthesis_alpha_scale_is_inert():
    # (e^G)^M = e^{MG}: with alpha_n * M_n pinned, the dial cannot move the
    # output; the repetitions collapse into one exponential per rung
    space = DickeSpace(3)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec[0] += 1.5
    target = QuantumState.from_amplitudes(space, vec, normalize=True)
    outs = [synthesis_by_powers(space, target, a)[1] for a in (0.1, 0.05, 0.02, 0.01)]
    assert np.ptp(outs) < 1e-12


def test_synthesis_requires_ground_amplitude():
    space = DickeSpace(3)
    with pytest.raises(ValueError):
        synthesis_by_powers(space, QuantumState.basis_state(space, 2), 0.05)


def test_synthesis_rejects_bad_scale():
    space = DickeSpace(3)
    with pytest.raises(ValueError):
        synthesis_by_powers(space, QuantumState.ground(space), 0.5)


def _synthesis_targets(n):
    """A weak coherent target and a seeded random one with complex a_0."""
    space = DickeSpace(n)
    rng = np.random.default_rng(n)
    vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    vec[0] = (1.5 + 1.0j) * np.linalg.norm(vec)
    return space, {
        "weak coherent": make_target(TargetSpec(TargetKind.COHERENT, gamma=0.2), space),
        "random": QuantumState.from_amplitudes(space, vec, normalize=True),
    }


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_ladder_chains_rebuild_the_dense_rung_operator(n):
    # v diag(w) v^T on each chain, scattered back to the ladder, is
    # (S_+^m + S_-^m) / c_m for every rung m
    space = DickeSpace(n)
    d = space.dim
    power = np.eye(d, dtype=complex)
    for m in range(1, d):
        power = power @ build_splus(space)
        dense = (power + power.conj().T).real / ladder_norm_constant(n, m)
        w, v = algebra._ladder_chain_eigenpairs(space, m)
        blocks = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
        slots = np.arange(m)[:, None] + m * np.arange(w.shape[1])
        rebuilt = np.zeros((d, d))
        for chain, block in zip(slots, blocks):
            keep = chain < d
            rebuilt[np.ix_(chain[keep], chain[keep])] = block[np.ix_(keep, keep)]
        assert np.max(np.abs(rebuilt - dense)) <= 1e-13 * max(1.0, np.max(np.abs(dense))), m


@pytest.mark.parametrize("n", [10, 40])
def test_synthesis_matches_dense_rung_oracle(n):
    # the chain form against the dense power loop it replaced, one expm of
    # r_n S_+^n - h.c. per rung
    space, targets = _synthesis_targets(n)
    for name, target in targets.items():
        state, err = synthesis_by_powers(space, target, 0.1)
        expected = synthesis_by_powers_dense(space, target)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12, name
        assert err == pytest.approx(1 - abs(np.vdot(target.amplitudes, expected)) ** 2,
                                    abs=1e-12), name


def test_synthesis_warm_cache_is_bit_identical_to_cold():
    space, targets = _synthesis_targets(40)
    for name, target in targets.items():
        algebra._ladder_chain_eigenpairs.cache_clear()
        cold_state, cold_err = synthesis_by_powers(space, target, 0.1)
        warm_state, warm_err = synthesis_by_powers(space, target, 0.1)
        assert np.array_equal(cold_state.amplitudes, warm_state.amplitudes), name
        assert cold_err == warm_err, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synthesis_is_finite_at_n_200():
    # the dense S_+^n overflowed here; the chain entries are built in log space
    space = DickeSpace(200)
    target = make_target(TargetSpec(TargetKind.COHERENT, gamma=0.2), space)
    state, err = synthesis_by_powers(space, target, 0.1)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
    assert 0.0 <= err < 1e-2


# --- pinned outputs ---------------------------------------------------------

def test_trotter_check_and_synthesis_outputs_are_pinned(tmp_path):
    # the default trotter-check (N=4, t=1, k = 8..64) and the weak coherent
    # target's synthesis infidelity, to relative 1e-12
    out = tmp_path / "trotter.json"
    assert cli_main(["trotter-check", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["outputs"]
    assert rec["sum_errors"] == pytest.approx(
        [0.07310557111449245, 0.0364093599778489, 0.018156885927150618,
         0.00906501045386833], rel=1e-12)
    assert rec["commutator_errors"] == pytest.approx(
        [0.4184117395988512, 0.33066290000947585, 0.2468793017304527,
         0.17932317079371393], rel=1e-12)
    for n, infidelity in ((10, 0.000833232112779192), (20, 0.0008902773745406156),
                          (40, 0.0009189402286312598)):
        space = DickeSpace(n)
        target = make_target(TargetSpec(TargetKind.COHERENT, gamma=0.2), space)
        assert synthesis_by_powers(space, target, 0.1)[1] == pytest.approx(infidelity, rel=1e-12)
