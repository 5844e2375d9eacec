"""The state-vector propagation kernel against the dense unitaries it replaces.

The dense path (``oracle.sequence_unitaries`` + ``oracle.apply``, built
from ``core._hermitian_exp``) is the oracle.  Amplitudes are compared as well as
overlaps, because for odd N (half-integer spin) a rotation read only up to
SO(3) would differ from the oracle by a global sign that no overlap shows.
"""

import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dickesim import (
    Convention,
    DickeSpace,
    GateConventions,
    NormDriftError,
    QuantumState,
    apply_sequence,
)
from dickesim import flatten_params, gates, optimizer
from dickesim.cli import _resolve_sequence_path
from dickesim.core import DimensionMismatchError, _fidelity_with_vector
from dickesim.gates import (
    CONVENTION_SWEEP,
    EXPONENT_SIGNS,
    RECURRENCE_MIN_LEVELS,
    ROTATION_COMPOSITIONS,
    SQUEEZE_COMPOSITIONS,
    SQUEEZE_ORDERS,
    _chain_eigh,
    _chain_exp,
    _hop_folds,
    _propagate_each,
    _propagation_bases,
    _slot_phases,
    propagate,
    propagate_sweep,
    squeeze_eigenpairs,
    unflatten_params,
)
from dickesim.optimizer import PARAM_BOUND, make_objective
from dickesim.seqfile import load_sequence_file
from oracle import (
    _spin_triple,
    apply,
    rotation_from_turns,
    sequence_unitaries,
    slot_phases_concatenated,
    squeeze_pair_unitary,
)

INFIDELITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-10


def dense_states(space, params, conv, psi0):
    """States after each step and after the final rotation, via dense unitaries."""
    state = QuantumState(space, amplitudes=psi0)
    out = []
    for u in sequence_unitaries(unflatten_params(space, (len(params) - 3) // 5, params), conv):
        state = apply(u, state)
        out.append(state.amplitudes)
    return np.array(out)


def random_state(space, rng):
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return vec / np.linalg.norm(vec)


def assert_same_state(dense, kernel):
    assert 1.0 - abs(np.vdot(dense, kernel)) ** 2 <= INFIDELITY_TOL
    assert np.max(np.abs(dense - kernel)) <= AMPLITUDE_TOL


@pytest.mark.parametrize("n", [1, 2, 4, 5, 40, 101])
def test_kernel_matches_dense_on_every_convention(n):
    rng = np.random.default_rng(1000 + n)
    space = DickeSpace(n)
    for conv in CONVENTION_SWEEP:
        params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
        ground = QuantumState.ground(space).amplitudes
        assert_same_state(dense_states(space, params, conv, ground)[-1],
                          propagate(space, params, conv, ground))


# the largest N below the size rule of gates._slot_phases and gates._plan's
# real basis changes, and the smallest at it
RULE_EDGE = [RECURRENCE_MIN_LEVELS - 2, RECURRENCE_MIN_LEVELS - 1]


# 100 and 101 are replay-sweep's N; each pair takes both layouts of the
# recurrence's halves, N even and odd
@pytest.mark.parametrize("n", [4, 5, *RULE_EDGE, 40, 41, 62, 63, 100, 101])
def test_sweep_equals_propagate_under_each_convention_bitwise(n):
    # the sweep's one set of combined-squeeze eigenpairs gives the bits that
    # each convention's own propagate call gives, for a vector, the vector as
    # one column and a block; and the column gives the vector's bits
    rng = np.random.default_rng(2000 + n)
    space = DickeSpace(n)
    params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
    block = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    psi = random_state(space, rng)
    for psi0 in (psi, psi[:, None], block / np.linalg.norm(block)):
        finals = propagate_sweep(space, params, psi0)
        assert finals.shape == (len(CONVENTION_SWEEP),) + psi0.shape
        for conv, final in zip(CONVENTION_SWEEP, finals):
            assert np.array_equal(final, propagate(space, params, conv, psi0)), conv
    for conv in CONVENTION_SWEEP:
        assert np.array_equal(propagate(space, params, conv, psi[:, None])[:, 0],
                              propagate(space, params, conv, psi)), conv
    ground = QuantumState.ground(space).amplitudes
    with pytest.raises(ValueError, match="5M \\+ 3"):
        propagate_sweep(space, np.zeros(7), ground)
    with pytest.raises(DimensionMismatchError):
        propagate_sweep(space, np.zeros(8), np.ones(space.dim + 1))
    with pytest.raises(NormDriftError, match="^squeeze strengths "):
        propagate_sweep(space, [0.0, 0.0, 0.0, 1e308, 1e308, 0.0, 0.0, 0.0], ground)


@pytest.mark.parametrize("n", [3, 6, *RULE_EDGE, 40, 41, 62, 63, 100, 101])
def test_stacked_per_step_states_equal_each_convention_bitwise(n):
    # the stacked step loops also give each convention's per-step states
    rng = np.random.default_rng(2100 + n)
    space = DickeSpace(n)
    params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
    block = rng.normal(size=(space.dim, 2)) + 1j * rng.normal(size=(space.dim, 2))
    for psi0 in (random_state(space, rng), block / np.linalg.norm(block)):
        stacked = _propagate_each(space, params, CONVENTION_SWEEP, psi0, True)
        for conv, states in zip(CONVENTION_SWEEP, stacked):
            assert np.array_equal(states, propagate(space, params, conv, psi0, per_step=True))
            assert np.array_equal(states[-1], propagate(space, params, conv, psi0))


# from the size rule on (N = 16, 17, even and odd) every basis change is real
@pytest.mark.parametrize("n", [3, 6, RECURRENCE_MIN_LEVELS - 1, RECURRENCE_MIN_LEVELS, 40, 100])
def test_per_step_states_match_dense_loop(n):
    rng = np.random.default_rng(7)
    space = DickeSpace(n)
    for conv in CONVENTION_SWEEP:
        params = rng.uniform(-np.pi, np.pi, 5 * 4 + 3)
        psi0 = random_state(space, rng)
        dense = dense_states(space, params, conv, psi0)
        kernel = propagate(space, params, conv, psi0, per_step=True)
        assert kernel.shape == dense.shape == (5, space.dim)
        for d, k in zip(dense, kernel):
            assert_same_state(d, k)
        assert np.array_equal(kernel[-1], propagate(space, params, conv, psi0))


@pytest.mark.parametrize("n", [4, 5])
def test_zero_parameters_leave_the_state_unchanged(n):
    rng = np.random.default_rng(3)
    space = DickeSpace(n)
    psi0 = random_state(space, rng)
    for conv in CONVENTION_SWEEP:
        assert np.max(np.abs(propagate(space, np.zeros(13), conv, psi0) - psi0)) < 1e-14


# Turns at which an Euler angle set of the kernel is degenerate (middle angle
# 0 or pi, so only the sum or difference of the outer angles is fixed).
# Z-X-Z (combined squeeze): pure z rotations and half-turns about axes in the
# xy plane (first entry of the SU(2) element 0 up to rounding).  The merged
# X-Z-Y and Y-Z-X angles (product squeeze) read R P or P^dag R with P =
# exp(-i pi/2 J_z): quarter turns about z (eighth turns under pauli-sum, which
# doubles every angle), a quarter turn about y under the product rotation,
# and 120-degree turns about body diagonals.
_DIAGONAL = 2 * np.pi / 3 / np.sqrt(3)
DEGENERATE_TURNS = [
    (0.0, 0.0, 0.0),
    (0.0, 0.0, 1.3),
    (0.0, 0.0, -2 * np.pi),
    (np.pi, 0.0, 0.0),
    (0.0, np.pi, 0.0),
    (np.pi / np.sqrt(2), -np.pi / np.sqrt(2), 0.0),
    (3 * np.pi, 0.0, 0.0),
    (0.0, 0.0, np.pi / 2),
    (0.0, 0.0, -np.pi / 2),
    (0.0, 0.0, np.pi / 4),
    (0.0, 0.0, -np.pi / 4),
    (0.0, np.pi / 2, 0.0),
    (_DIAGONAL, _DIAGONAL, _DIAGONAL),
    (_DIAGONAL, _DIAGONAL, -_DIAGONAL),
    (_DIAGONAL, -_DIAGONAL, _DIAGONAL),
    (_DIAGONAL, -_DIAGONAL, -_DIAGONAL),
]


@pytest.mark.parametrize("turns", DEGENERATE_TURNS)
@pytest.mark.parametrize("n", [1, 4, 5])
def test_rotation_at_degenerate_euler_angles(turns, n):
    rng = np.random.default_rng(11)
    space = DickeSpace(n)
    for conv in CONVENTION_SWEEP:
        psi0 = random_state(space, rng)
        expected = rotation_from_turns(space, turns, conv) @ psi0
        assert_same_state(expected, propagate(space, turns, conv, psi0))


@pytest.mark.parametrize("alpha, beta", [(0.7, 0.7), (-1.9, -1.9), (0.0, 0.0), (0.0, 1.1)])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_combined_squeeze_special_strengths(alpha, beta, n):
    rng = np.random.default_rng(13)
    space = DickeSpace(n)
    for convention in Convention:
        psi0 = random_state(space, rng)
        for sign in (1, -1):
            conv = GateConventions(squeeze_composition="combined", exponent_sign=sign,
                                   convention=convention)
            params = np.array([0.0, 0.0, 0.0, alpha, beta, 0.0, 0.0, 0.0])
            expected = squeeze_pair_unitary(space, alpha, beta, conv) @ psi0
            assert_same_state(expected, propagate(space, params, conv, psi0))


@settings(max_examples=150, deadline=None)
@given(turns=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=3, max_size=3),
       n=st.integers(1, 9),
       convention=st.sampled_from(list(Convention)),
       rot=st.sampled_from(ROTATION_COMPOSITIONS),
       sign=st.sampled_from(EXPONENT_SIGNS),
       squeeze=st.sampled_from(SQUEEZE_COMPOSITIONS),
       order=st.sampled_from(SQUEEZE_ORDERS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_euler_path_equals_dense_rotation(turns, n, convention, rot, sign, squeeze, order,
                                          seed):
    space = DickeSpace(n)
    psi0 = random_state(space, np.random.default_rng(seed))
    conv = GateConventions(squeeze_order=order, squeeze_composition=squeeze,
                           rotation_composition=rot, exponent_sign=sign,
                           convention=convention)
    expected = rotation_from_turns(space, turns, conv) @ psi0
    assert_same_state(expected, propagate(space, turns, conv, psi0))


@pytest.mark.parametrize("n", [3, 4])
def test_density_and_column_block_match_dense(n):
    rng = np.random.default_rng(17 + n)
    space = DickeSpace(n)
    d = space.dim
    for conv in CONVENTION_SWEEP:
        params = rng.uniform(-np.pi, np.pi, 5 * 3 + 3)
        seq = unflatten_params(space, 3, params)
        for rank in (d, 2):  # full rank, and a density factored by its rank
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            rho = QuantumState(space, density=g @ g.conj().T / np.vdot(g, g).real)
            expected = rho
            for u in sequence_unitaries(seq, conv):
                expected = apply(u, expected)
            out = apply_sequence(seq, rho, conv)
            assert np.max(np.abs(out.density - expected.density)) <= 1e-12

        columns = [random_state(space, rng) for _ in range(3)]
        block = np.stack(columns, axis=-1) / np.sqrt(3)  # unit Frobenius norm
        for per_step in (False, True):
            kernel = propagate(space, params, conv, block, per_step)
            one_by_one = np.stack([propagate(space, params, conv, c, per_step)
                                   for c in columns], axis=-1)
            assert kernel.shape == one_by_one.shape
            assert np.max(np.abs(kernel * np.sqrt(3) - one_by_one)) <= 1e-13


def squeeze_bands(space, alpha, beta):
    """The diagonal and the m, m + 2 entries of -(alpha J_x^2 + beta J_y^2)."""
    sq = [(s @ s).real for s in _spin_triple(space, Convention.SPIN_J)[:2]]
    gen = -alpha * sq[0] - beta * sq[1]
    return np.diag(gen), np.diag(gen, 2)


def chain_blocks(diag, off):
    """The blocks (2, L, L) of the even and the odd levels of the H with the
    diagonal ``diag`` and H[m, m + 2] = ``off[m]``, zero-padded to one length."""
    length = (diag.size + 1) // 2
    blocks = np.zeros((2, length, length))
    for c in (0, 1):
        n = diag[c::2].size
        blocks[c, :n, :n] = np.diag(diag[c::2]) + np.diag(off[c::2], 1) + np.diag(off[c::2], -1)
    return blocks


def mirror_eigh(diag, off):
    """The eigenpairs that ``squeeze_eigenpairs`` makes of the chains of the
    H with the diagonal ``diag`` and H[m, m + 2] = ``off[m]``, replayed
    chain by chain and in the units of the input: per parity chain, w and
    v laid out as the kernel lays them.  Odd N: eigh of the even chain,
    whose rows reversed are the odd chain's eigenvectors.  Even N: a chain
    of n slots splits into the blocks s = +-1 of its upper left quarter,
    but for the corner H[k, k] + s H[k, k+1] at k + 1 = n-1-k and the middle
    slot's coupling (H[k, k-1] + H[k, k+1]) / sqrt 2, padded to ceil(L/2)
    slots with a diagonal above every eigenvalue; the chain takes every
    column of its first block, the unpadded ones of its second, and
    sum_k u_k q_k with q_k = g_k (e_k + s e_{n-1-k}) as the eigenvector."""
    d = diag.size
    length = (d + 1) // 2
    chains = chain_blocks(diag, off)
    if d % 2 == 0:
        w, v = np.linalg.eigh(chains[0])
        return [(w, v), (w, v[::-1])]
    size = (length + 1) // 2
    ceiling = 4 * max(np.abs(diag).max(), np.abs(off).max()) + 1
    out = []
    for c, signs in ((0, (1, -1)), (1, (-1, 1))):
        h, n = chains[c], length - c
        pairs = []
        for s in signs:
            block = np.diag(np.full(size, ceiling))
            for k in range((n + (s > 0)) // 2):
                block[k, k] = h[k, k] + s * (h[k, k + 1] if 2 * k + 2 == n else 0.0)
                if k:
                    block[k, k - 1] = block[k - 1, k] = (
                        np.sqrt(0.5) * (h[k, k - 1] + h[k, k + 1]) if 2 * k + 1 == n
                        else h[k, k - 1] + s * 0.0)
            pairs.append(np.linalg.eigh(block))
        widths = (size, length - size)
        w = np.concatenate([pairs[0][0], pairs[1][0][:widths[1]]])
        if c:  # chain 1's padded slot
            w[size - 1] = 0.0
        v = np.zeros((length, length))
        for r in range(length):
            for q, s in enumerate(signs):
                if r >= n:  # the padded slot of the first block
                    k, e = size - 1, float(s < 0)
                else:
                    k = min(r, n - 1 - r)
                    g = 0.5 if 2 * k == n - 1 else np.sqrt(0.5)
                    e = g * (1 if r < n - 1 - r else s if r > n - 1 - r else 1 + s)
                v[r, q * size:q * size + widths[q]] = e * pairs[q][1][k, :widths[q]]
        out.append((w, v))
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(RECURRENCE_MIN_LEVELS - 8, RECURRENCE_MIN_LEVELS + 7),
                   st.integers(1, 160)))
@example(n=1)
@example(n=RECURRENCE_MIN_LEVELS - 2)
@example(n=RECURRENCE_MIN_LEVELS - 1)
@example(n=400)
def test_hop_is_d_r_d_with_r_one_real_product(n):
    # with vy = P vx, the hop vy^dag vx = D R D with D = diag(i^(a mod 2))
    # and R = S o (vx^T diag(cos(pi x/2) + sin(pi x/2)) vx), S = -1 where both
    # J_x eigen-indices are odd, to a few ulp times d; from the size rule on
    # the bases hold that R, below it none
    space = DickeSpace(n)
    bases, d = _propagation_bases(space), space.dim
    assert bases.vx.dtype == float
    vy = np.exp(-0.5j * np.pi * bases.jz)[:, None] * bases.vx
    odd = np.arange(d) % 2 == 1
    half_turn = 0.5 * np.pi * bases.jz
    r = np.where(np.outer(odd, odd), -1.0, 1.0) * (
        bases.vx.T @ ((np.cos(half_turn) + np.sin(half_turn))[:, None] * bases.vx))
    hop = vy.conj().T @ bases.vx
    unit = np.where(odd, 1j, 1.0)
    assert np.max(np.abs(unit[:, None] * r * unit - hop)) <= 4 * d * np.finfo(float).eps
    if d >= RECURRENCE_MIN_LEVELS:
        assert bases.hop.dtype == float and np.array_equal(bases.hop, r)
    else:
        assert bases.hop is None


@pytest.mark.parametrize("n", [RECURRENCE_MIN_LEVELS - 1, 63, 100])
def test_real_basis_changes_take_a_block_in_any_layout(n):
    # the float view needs C order: a Fortran-ordered or strided block gives
    # the bits of the C-ordered one
    rng = np.random.default_rng(73 + n)
    space = DickeSpace(n)
    params = rng.uniform(-np.pi, np.pi, 5 * 2 + 3)
    block = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    block /= np.linalg.norm(block)
    strided = np.zeros((space.dim, 6), complex)
    strided[:, ::2] = block
    for conv in CONVENTION_SWEEP:
        for per_step in (False, True):
            expected = propagate(space, params, conv, block, per_step)
            for layout in (np.asfortranarray(block), strided[:, ::2]):
                assert np.array_equal(propagate(space, params, conv, layout, per_step), expected)


def test_squeeze_bands_are_the_exact_ladder_products():
    # J_x^2 and J_y^2 share the diagonal (j(j+1) - x^2)/2, x = m - N/2, a
    # multiple of 1/4 held exactly, and their m, m+2 entries are
    # +-band[m] band[m+1] with the ladder band band[m] = J_x[m, m+1]; the
    # dense products J @ J agree to 4 ulp
    for n in [*range(1, 65), 401]:
        space = DickeSpace(n)
        bases = _propagation_bases(space)
        j = Fraction(n, 2)
        assert list(map(Fraction, bases.sq_diag)) == [
            (j * (j + 1) - (m - j) ** 2) / 2 for m in range(space.dim)], n
        jx, jy, _ = _spin_triple(space, Convention.SPIN_J)
        band = np.diag(jx, 1).real
        assert np.array_equal(bases.sq_off, band[:-1] * band[1:]), n
        for spin, sign in ((jx, 1.0), (jy, -1.0)):
            square = (spin @ spin).real
            for dense, exact in ((np.diag(square), bases.sq_diag),
                                 (np.diag(square, 2), sign * bases.sq_off)):
                assert np.all(np.abs(dense - exact) <= 4 * np.spacing(np.abs(exact))), n


def s_unit_squeeze(space, convention, alpha, beta, sign, psi, folded=True):
    """exp(sign i (alpha S_x^2 + beta S_y^2)) psi, diagonalized in the
    convention's own S units.  Folded, as the kernel does it: the
    :func:`mirror_eigh` eigenpairs of -(alpha S_x^2 + beta S_y^2) and the
    phases exp(i (-sign) w), the reference that the J-unit eigenpairs
    reproduce bit for bit.  Unfolded: eigh of each parity chain of the
    signed generator sign (alpha S_x^2 + beta S_y^2) itself, phases
    exp(i w).  Laid out as the kernel's chains: the even and the odd levels,
    zero-padded to one length, each matvec on the real and imaginary parts
    as two real columns."""
    bases, scale = _propagation_bases(space), GateConventions(convention=convention).scale
    a, b, k = (-alpha, -beta, -sign) if folded else (sign * alpha, sign * beta, 1)
    d = space.dim
    size = d + d % 2
    diag, off, padded = np.zeros(size), np.zeros(size - 2), np.zeros(size, complex)
    # S_x^2 and S_y^2 are scale^2 times the J-unit squares: a shared diagonal
    # and opposite m, m+2 bands
    diag[:d] = (a + b) * (scale ** 2 * bases.sq_diag)
    off[:d - 2] = (a - b) * (scale ** 2 * bases.sq_off)
    padded[:d] = psi
    if folded:
        pairs = mirror_eigh(diag[:d], off[:d - 2])
    else:
        pairs = [np.linalg.eigh(np.diag(diag[p::2]) + np.diag(off[p::2], 1)
                                + np.diag(off[p::2], -1)) for p in (0, 1)]
    out = np.empty_like(padded)
    for parity, (w, v) in enumerate(pairs):
        coeffs = (v.T @ padded[parity::2, None].view(float)).view(complex)
        coeffs *= np.exp(1j * (k * w))[:, None]
        out[parity::2] = (v @ coeffs.view(float)).view(complex)[:, 0]
    return out[:d]


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_chain_exp_is_the_dense_exponential_at_every_stride(n):
    from scipy.linalg import expm

    rng = np.random.default_rng(41 + n)
    d = n + 1
    for stride in range(1, d):
        diag, off = rng.normal(size=d), rng.normal(size=d - stride)
        k = rng.uniform(-3.0, 3.0)
        dense = expm(1j * k * (np.diag(diag) + np.diag(off, stride) + np.diag(off, -stride)))
        w, v = _chain_eigh(diag, off, stride)
        # a stack over a leading axis diagonalizes each slice as one call would
        stacked_w, stacked_v = _chain_eigh(np.stack([2.0 * diag, diag]),
                                           np.stack([2.0 * off, off]), stride)
        assert np.array_equal(stacked_w[1], w) and np.array_equal(stacked_v[1], v)
        for shape in ((d,), (d, 3)):
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = _chain_exp(v, np.exp(1j * (k * w)), psi)
            assert got.shape == shape
            assert np.max(np.abs(got - dense @ psi)) <= 1e-12 * np.max(np.abs(psi)), stride


@pytest.mark.parametrize("n", [4, 40, 100])
def test_chain_exp_stack_keeps_the_bits_of_each_slice(n):
    # a stack of B inputs, one k per slice, runs one matmul per slice, so
    # each slice equals its own unstacked call bit for bit
    rng = np.random.default_rng(47 + n)
    d = n + 1
    w, v = _chain_eigh(rng.normal(size=d), rng.normal(size=d - 2), 2)
    ks = np.array([1.0, -1.0, 4.0, -4.0])
    for cols in (1, 2, 3):
        stack = rng.normal(size=(4, d, cols)) + 1j * rng.normal(size=(4, d, cols))
        got = _chain_exp(v, np.exp(1j * (ks[:, None, None] * w)), stack)
        assert got.shape == stack.shape
        for b, k in enumerate(ks):
            one = stack[b, :, 0] if cols == 1 else stack[b]
            assert np.array_equal(got[b].reshape(one.shape),
                                  _chain_exp(v, np.exp(1j * (k * w)), one)), (cols, k)


@pytest.mark.parametrize("n", [2, 7, 40])
def test_chain_exp_keeps_a_chain_on_itself(n):
    # chain c holds |c>, |c + stride>, ...; whatever the padding, an input on
    # one chain keeps every other level at exactly 0 and loses no norm into a
    # padded slot, also at the exact eigenvalue 0 that a padded slot shares
    # with an odd chain of a zero diagonal (a ladder rung)
    rng = np.random.default_rng(43 + n)
    d = n + 1
    for stride in range(1, d):
        off = rng.normal(size=d - stride)
        for diag in (np.zeros(d), rng.normal(size=d)):
            w, v = _chain_eigh(diag, off, stride)
            for c in range(stride):
                psi = np.zeros(d, complex)
                psi[c::stride] = rng.normal(size=psi[c::stride].size)
                psi /= np.linalg.norm(psi)
                got = _chain_exp(v, np.exp(1j * (rng.uniform(-3.0, 3.0) * w)), psi)
                assert not np.delete(got, np.arange(c, d, stride)).any(), (stride, c)
                assert abs(np.linalg.norm(got) - 1.0) <= 1e-14, (stride, c)


# Strengths whose products with the squared-spin entries underflow (|s| below
# ~1e-300) round differently in the two units, so they are left out.
_STRENGTH = st.floats(-np.pi, np.pi).filter(lambda s: s == 0.0 or abs(s) > 1e-300)
# LAPACK's tridiagonal QL/QR rescales a block whose largest entry lies below
# sqrt(safmin) / eps^2 ~ 1.2e-122, so a J-unit block there and its S-unit
# block (4 times larger, perhaps above it) can take different paths
_LAPACK_RESCALE_BELOW = np.sqrt(np.finfo(float).tiny) / np.finfo(float).epsneg ** 2


@settings(max_examples=200, deadline=None)
@given(alpha=_STRENGTH, beta=_STRENGTH, n=st.integers(2, 30),
       sign=st.sampled_from(EXPONENT_SIGNS), seed=st.integers(0, 2**32 - 1))
@example(alpha=0.0, beta=8.084877445879287e-125, n=17, sign=1, seed=0)
def test_j_unit_squeeze_is_bitwise_the_s_unit_squeeze(alpha, beta, n, sign, seed):
    # Pauli-sum units are S = 2 J: the J-unit eigenvalues times 2**2 are the
    # S-unit ones bit for bit, and the eigenvectors are the same, so one set
    # of eigenpairs serves both operator conventions without changing a bit,
    # unless LAPACK rescales a block; then the two agree to roundoff
    space = DickeSpace(n)
    w, v = squeeze_eigenpairs(space, [[alpha, beta]])
    psi = random_state(space, np.random.default_rng(seed))
    sq = [(s @ s).real for s in _spin_triple(space, Convention.SPIN_J)[:2]]
    gen = alpha * sq[0] + beta * sq[1]
    rescaled = any(0 < np.max(np.abs(gen[p::2, p::2])) < _LAPACK_RESCALE_BELOW for p in (0, 1))
    for convention in Convention:
        scale = GateConventions(convention=convention).scale
        expected = s_unit_squeeze(space, convention, alpha, beta, sign, psi)
        got = _chain_exp(v[0], np.exp(1j * (-sign * scale ** 2 * w[0])), psi)
        if rescaled:
            assert np.max(np.abs(got - expected)) <= 1e-14
        else:
            assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(alpha=_STRENGTH, beta=_STRENGTH, n=st.integers(1, 30),
       sign=st.sampled_from(EXPONENT_SIGNS), seed=st.integers(0, 2**32 - 1))
def test_folded_sign_matches_eigh_of_the_signed_generator(alpha, beta, n, sign, seed):
    # one eigendecomposition of -(alpha J_x^2 + beta J_y^2) serves both
    # exponent signs.  The reference diagonalizes each sign's own generator,
    # so at sign +1 it holds eigh(+H) where the kernel holds eigh(-H); their
    # eigenvalues differ by roundoff, eps times the largest one, which the
    # phases carry: 1e-14 per radian of the largest phase
    space = DickeSpace(n)
    params = [0.0, 0.0, 0.0, alpha, beta, 0.0, 0.0, 0.0]
    w, _ = squeeze_eigenpairs(space, [[alpha, beta]])
    psi = random_state(space, np.random.default_rng(seed))
    for convention in Convention:
        conv = GateConventions(squeeze_composition="combined", exponent_sign=sign,
                               convention=convention)
        largest = np.abs(conv.scale ** 2 * w).max(initial=0.0)
        expected = s_unit_squeeze(space, convention, alpha, beta, sign, psi, folded=False)
        got = propagate(space, params, conv, psi)
        assert np.max(np.abs(got - expected)) <= 1e-14 * max(1.0, largest)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 60), alpha=st.floats(-np.pi, np.pi),
       beta=st.one_of(st.floats(-np.pi, np.pi), st.sampled_from(["-alpha", "zero"])),
       seed=st.integers(0, 2**32 - 1))
@example(n=40, alpha=0.0, beta="zero", seed=0)
@example(n=41, alpha=1.0, beta="-alpha", seed=0)
@example(n=42, alpha=0.5, beta="-alpha", seed=0)
def test_mirror_eigenpairs_rebuild_each_chain(n, alpha, beta, seed):
    # the half-size mirror blocks, laid out as chains, are orthogonal
    # eigenpairs of every chain block, also where alpha = -beta puts exact
    # zero eigenvalues next to a padded slot; odd N's chains are mirror
    # images, even N's eigenvectors even or odd under the chain reversal
    beta = {"-alpha": -alpha, "zero": 0.0}.get(beta, beta)
    space = DickeSpace(n)
    chains = chain_blocks(*squeeze_bands(space, alpha, beta))
    norm = max(np.abs(chains).max(), np.finfo(float).tiny)
    w, v = squeeze_eigenpairs(space, [[alpha, beta]])
    w, v = w[0], v[0]
    length = chains.shape[-1]
    assert w.shape == (2, length) and v.shape == (2, length, length)
    assert np.max(np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(length))) <= 1e-14
    assert np.max(np.abs((v * w[:, None, :]) @ np.swapaxes(v, 1, 2) - chains)) <= 1e-13 * norm
    if n % 2:
        assert np.max(np.abs(np.sort(w[0]) - np.sort(w[1]))) <= 1e-13 * norm
    else:
        for c, size in enumerate(((n + 2) // 2, n // 2)):
            for col in v[c, :size].T:
                assert np.array_equal(col[::-1], col) or np.array_equal(col[::-1], -col)
    rng = np.random.default_rng(seed)
    for c in (0, 1):
        psi = np.zeros(space.dim, complex)
        psi[c::2] = rng.normal(size=psi[c::2].size) + 1j * rng.normal(size=psi[c::2].size)
        if not psi.any():
            continue
        psi /= np.linalg.norm(psi)
        got = _chain_exp(v, np.exp(1j * (rng.uniform(-4.0, 4.0) * w)), psi)
        assert not got[1 - c::2].any()
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-14


def _mp_chain_exp(diag, off, k, psi):
    """exp(i k H) psi at 40 digits, H the tridiagonal matrix of the chain."""
    import mpmath

    with mpmath.workdps(40):
        size = diag.size
        h = mpmath.matrix(size, size)
        for i in range(size):
            h[i, i] = diag[i]
            if i + 1 < size:
                h[i, i + 1] = h[i + 1, i] = off[i]
        w, q = mpmath.eigsy(h)
        x = [mpmath.mpc(complex(p)) for p in psi]
        coeffs = [mpmath.expj(k * w[j]) * mpmath.fsum(q[r, j] * x[r] for r in range(size))
                  for j in range(size)]
        return np.array([complex(mpmath.fsum(q[r, j] * coeffs[j] for j in range(size)))
                         for r in range(size)])


@pytest.mark.parametrize("n", [40, 41, 100])
def test_mirror_squeeze_is_as_accurate_as_the_whole_chains(n):
    # against a 40-digit exponential of each chain, the mirror eigenpairs
    # err no more than an eigh of the whole chains does, with a margin for
    # roundoff.  At N = 100 only the odd chain, which holds the padded slot,
    # is checked: a 40-digit eigh of its 50 slots takes ~2 s
    space = DickeSpace(n)
    rng = np.random.default_rng(53 + n)
    alpha, beta = rng.uniform(-np.pi, np.pi, 2)
    diag, off = squeeze_bands(space, alpha, beta)
    k = rng.choice([-4.0, -1.0, 1.0, 4.0])
    psi = random_state(space, rng)
    if n == 100:
        psi[0::2] = 0.0
    exact = np.zeros(space.dim, complex)
    for c in (0, 1):
        if psi[c::2].any():
            exact[c::2] = _mp_chain_exp(diag[c::2], off[c::2], k, psi[c::2])
    w, v = squeeze_eigenpairs(space, [[alpha, beta]])
    mirror = np.max(np.abs(_chain_exp(v[0], np.exp(1j * (k * w[0])), psi) - exact))
    w, v = _chain_eigh(diag, off, 2)
    whole = np.max(np.abs(_chain_exp(v, np.exp(1j * (k * w)), psi) - exact))
    assert mirror <= 1.5 * whole, (mirror, whole)


# (L, Q) of each phase slot as entries of a coef row (a, b, c, s1, s2): the
# product squeeze's slots are X(a) with s1, Z(b), Y(c) with s2 and s2 alone;
# the combined squeeze's Z(c), X(b) and Z(a) carry no Q
_SLOT_LQ = [(2, 4), (1, None), (0, 3), (None, 4)]


def _phase_coef(rng, rows):
    """Coefficient rows at the pauli-sum scale: |L| <= 2 pi, |Q| <= 4 pi."""
    return np.hstack([rng.uniform(-2 * np.pi, 2 * np.pi, (rows, 3)),
                      rng.uniform(-4 * np.pi, 4 * np.pi, (rows, 2))])


def _slot_lq(coef, combined):
    """(L, Q) per coef row and slot, shape (rows, slots, 2)."""
    out = np.zeros((len(coef), 3 if combined else 4, 2))
    for slot in range(out.shape[1]):
        for i, index in enumerate(_SLOT_LQ[slot]):
            if index is not None and not (i and combined):
                out[:, slot, i] = coef[:, index]
    return out


def _mp_level_phases(lq, n):
    """exp(i (L x + Q x^2)) on x = -N/2 .. N/2 at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        xs = [mpmath.mpf(j) - mpmath.mpf(n) / 2 for j in range(n + 1)]
        return np.array([[[complex(mpmath.expj(mpmath.mpf(float(l)) * x
                                              + mpmath.mpf(float(q)) * x * x)) for x in xs]
                          for l, q in row] for row in lq])


@pytest.mark.parametrize("n", [17, 40, 41, 100, 400])
@pytest.mark.parametrize("combined", [False, True])
def test_grown_phases_are_more_accurate_than_the_direct_exp(n, combined):
    # against 40 digits, the phases grown from the middle level err no more
    # than the direct exp on the exact levels, whose argument |Q| x^2 loses
    # digits as N grows; a recurrence grown from x = -N/2 starts where that
    # argument is largest, and fails this
    assert n + 1 >= RECURRENCE_MIN_LEVELS
    rng = np.random.default_rng(59 + n)
    space = DickeSpace(n)
    coef = _phase_coef(rng, 3)
    slots = 3 if combined else 4
    lq = _slot_lq(coef, combined)
    exact = _mp_level_phases(lq, n)
    grown = _slot_phases(space, coef, combined, slots)
    assert grown.flags.c_contiguous and grown.shape == exact.shape
    x = np.arange(space.dim) - n / 2
    on_levels = np.exp(1j * (lq[..., :1] * x + lq[..., 1:] * x * x))
    err = [np.max(np.abs(p - exact)) for p in (grown, on_levels)]
    assert err[0] <= err[1], err


@pytest.mark.parametrize("n", [1, 4, 8, 13, RECURRENCE_MIN_LEVELS - 2])
@pytest.mark.parametrize("combined", [False, True])
def test_phases_below_the_size_rule_are_the_direct_exp_bitwise(n, combined):
    # below the size rule each phase is one exp on the exact levels: within
    # 2e-13 of 40 digits (rows on eigh's J_x levels, ~1e-14 off, err up to
    # 1.5e-12 at N = 13 and fail this), and a slice of a stack keeps the
    # bits of its group of one
    rng = np.random.default_rng(61 + n)
    space = DickeSpace(n)
    assert space.dim < RECURRENCE_MIN_LEVELS
    for slots in ((3,) if combined else (3, 4)):
        coef = _phase_coef(rng, 8).reshape(2, 4, 5)
        stack = _slot_phases(space, coef, combined, slots, np.matmul)
        assert stack.flags.c_contiguous
        exact = _mp_level_phases(_slot_lq(coef.reshape(8, 5), combined), n)[:, :slots]
        assert np.max(np.abs(stack.reshape(exact.shape) - exact)) <= 2e-13
        for c, s in zip(coef, stack):
            one = _slot_phases(space, c, combined, slots, np.ndarray.dot)
            assert one.flags.c_contiguous and np.array_equal(one, s)


def assert_same_bits(got, expected):
    """Equal bit for bit, and NaN exactly where ``expected`` has NaN (the
    payload a NaN carries is left to the platform)."""
    got, expected = got.view(float), expected.view(float)
    nan = np.isnan(expected)
    assert got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


# the first N at the size rule, then replay-sweep's, each pair with an even and an odd N
@pytest.mark.parametrize("n", [RECURRENCE_MIN_LEVELS - 1, RECURRENCE_MIN_LEVELS, 40, 41, 100, 101])
@pytest.mark.parametrize("combined", [False, True])
def test_phases_in_reused_buffers_have_the_bits_of_the_first_recurrence(n, combined):
    # the table grown in reused buffers or in new arrays equals the recurrence
    # that repeated its rows into a new table and concatenated its halves,
    # for a stack of 8 and for a group of one, with 3 and 4 slots; a
    # strength of 1e308 or inf puts NaN where that recurrence put it, and
    # what the buffers held before (NaN everywhere) does not show
    rng = np.random.default_rng(67 + n)
    space = DickeSpace(n)
    assert space.dim >= RECURRENCE_MIN_LEVELS
    for slots in ((3,) if combined else (3, 4)):
        coef = _phase_coef(rng, 8 * 4).reshape(8, 4, 5)
        coef[1, 2, 3], coef[5, 0, 4] = 1e308, np.inf
        for c, mul in ((coef, np.matmul), (coef[1], np.ndarray.dot), (coef[5], np.ndarray.dot)):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = slot_phases_concatenated(space, c, combined, slots, mul)
                fresh = _slot_phases(space, c, combined, slots, mul)
                buffers = {}
                held = _slot_phases(space, np.full_like(c, np.inf), combined, slots, mul, buffers)
                assert np.isnan(held).all() and len(buffers) == 2
                reused = _slot_phases(space, c, combined, slots, mul, buffers)
                assert reused is held and len(buffers) == 2
            if c is coef:  # NaN in the inf row's phases, in no slice without 1e308 or inf
                assert np.isnan(expected[5]).any()
                assert np.isfinite(expected[[0, 2, 3, 4, 6, 7]]).all()
            for got in (fresh, reused):
                assert got.flags.c_contiguous
                assert_same_bits(got, expected)


# the first N at the size rule, even and odd, then plain sizes
@pytest.mark.parametrize("n", [RECURRENCE_MIN_LEVELS - 1, RECURRENCE_MIN_LEVELS, 62, 63, 100, 101])
@pytest.mark.parametrize("adjoint", [False, True])
def test_hop_folds_carry_d_into_the_phases_exactly(n, adjoint):
    # the folded seeds grow to D (or D^dag) alone at zero coefficients, in
    # slots 0 and 3 after each hop and slot 2 before it, and multiply each
    # phase table by it bit for bit
    space = DickeSpace(n)
    unit = np.where(np.arange(space.dim) % 2 == 1, 1j, 1.0)
    unit = unit.conj() if adjoint else unit
    fold = _hop_folds(space, 3, adjoint)
    expected = np.ones((4, 4, space.dim), complex)
    expected[1:, 0] = expected[:-1, 2] = expected[1:, 3] = unit
    assert np.array_equal(_slot_phases(space, np.zeros((4, 5)), False, 4, fold=fold), expected)
    coef = _phase_coef(np.random.default_rng(71 + n), 4)
    for slots in (3, 4):
        plain = _slot_phases(space, coef, False, slots) * expected[:, :slots]
        assert_same_bits(_slot_phases(space, coef, False, slots, fold=fold), plain)


@pytest.mark.parametrize("n", [40, 41, 100])
def test_returned_states_do_not_share_the_reused_buffers(n):
    # propagate, per-step propagate and propagate_sweep on one space reuse
    # its phase and eigenvector buffers; calls with other parameters leave
    # every array an earlier call returned as it was; and _slot_phases
    # without a buffer returns a new array each call
    rng = np.random.default_rng(71 + n)
    space = DickeSpace(n)
    psi = random_state(space, rng)
    calls = [lambda p: propagate_sweep(space, p, psi)] + [
        lambda p, conv=conv, per_step=per_step: propagate(space, p, conv, psi, per_step)
        for conv in (GateConventions(), GateConventions(squeeze_composition="combined"))
        for per_step in (False, True)]
    kept = []
    for call in calls * 2:
        out = call(rng.uniform(-np.pi, np.pi, 5 * 3 + 3))
        kept.append((out, out.copy()))
    buffers = list(_propagation_bases(space).store["buffers"].values())
    assert len(buffers) >= 4  # the sweep's phases, a group of one's with 3 and 4 slots, v
    for out, copy in kept:
        assert np.array_equal(out, copy)
        assert not any(np.shares_memory(out, b) for b in buffers)
    coef = _phase_coef(rng, 4)
    first = _slot_phases(space, coef, False, 4)
    again = _slot_phases(space, coef, False, 4)
    assert np.array_equal(first, again) and not np.shares_memory(first, again)
    assert not any(np.shares_memory(first, b) for b in buffers)


def test_plans_share_one_buffer_per_shape():
    # the three groups of a sweep share one pair of phase buffers (the
    # halves, the level-ordered table), one pair of state buffers and the
    # combined squeeze's padded chains and coefficients, and the 24
    # conventions' own propagate calls one more of each, for the group of
    # one; the combined squeeze's eigenvectors take one for M steps.  More
    # plans hold no more buffers.  A block of 5 columns and M = 7 give
    # shapes no other test makes
    space = DickeSpace(100)
    n_steps, length, r = 7, 51, 5
    rng = np.random.default_rng(73)
    params = rng.uniform(-np.pi, np.pi, 5 * n_steps + 3)
    psi = rng.normal(size=(space.dim, r)) + 1j * rng.normal(size=(space.dim, r))
    psi /= np.linalg.norm(psi)
    store = _propagation_bases(space).store
    held = dict(store.get("buffers", {}))

    def added():
        return sorted(b.shape for key, b in store["buffers"].items() if key not in held)

    def per_group(*lead):
        return [lead + (n_steps + 1, 3, 2, length), lead + (n_steps + 1, 3, space.dim),
                (2, *lead, space.dim, r), lead + (2 * length, r), lead + (2, length, 2 * r)]

    sweep = [(n_steps, 2, length, length)] + per_group(8)
    propagate_sweep(space, params, psi)
    assert added() == sorted(sweep)
    for conv in CONVENTION_SWEEP:
        propagate(space, params, conv, psi)
    assert added() == sorted(sweep + per_group())
    assert sum(key[1:] == (n_steps,) for key in store if isinstance(key, tuple)) >= 3 + 24


def allocating_lines(call, size: int) -> int:
    """How many times a line of gates.py ran while the memory that
    tracemalloc traces rose ``size`` bytes or more above where it stood
    when the line began, in one ``call()``: one count per line that makes
    an array of at least ``size`` bytes, so an array made per factor counts
    once per factor."""
    hits, start = [], [None]

    def on_line(frame, event, arg):
        current, peak = tracemalloc.get_traced_memory()
        if start[0] is not None and peak - start[0] >= size:
            hits.append(frame.f_lineno)
        start[0] = current
        tracemalloc.reset_peak()
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == gates.__file__ else None

    tracemalloc.start()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return len(hits)


@pytest.mark.parametrize("combined", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_a_warm_run_makes_no_array_per_factor(combined, stacked):
    # a warm run at N = 40, on a block of 256 columns, makes as many arrays
    # of a state's size at M = 11 as at M = 3, with and without per_step:
    # the state passes between kept buffers, and per_step writes into one
    # array of all the states
    space, r = DickeSpace(40), 256
    rng = np.random.default_rng(83)
    cols = rng.normal(size=(space.dim, r)) + 1j * rng.normal(size=(space.dim, r))
    composition = "combined" if combined else "product"
    group = tuple(c for c in CONVENTION_SWEEP if c.squeeze_composition == composition
                  and c.squeeze_order == "xy")[:8 if stacked else 1]
    for per_step in (False, True):
        counts = []
        for n_steps in (3, 11):
            run = gates._plan(space, group, n_steps)
            params = rng.uniform(-np.pi, np.pi, 5 * n_steps + 3)
            run(params, cols, per_step)  # makes the buffers
            counts.append(allocating_lines(lambda: run(params, cols, per_step), 16 * cols.size))
        assert counts[0] == counts[1], (per_step, counts)


@pytest.mark.parametrize("n", [RECURRENCE_MIN_LEVELS - 2, RECURRENCE_MIN_LEVELS - 1,
                               RECURRENCE_MIN_LEVELS, 40])
def test_sweep_of_the_published_sequence_equals_propagate_bitwise(n):
    # gkp-square's 11 steps at N on both sides of the size rule: the sweep
    # gives each convention's own propagate bits, per-step propagate ends on
    # them, and a repeat in the same process gives the same bits: the reused
    # buffers and padded rows carry nothing from one call into the next
    seq = load_sequence_file(_resolve_sequence_path("gkp-square"), n)[0]
    params, ground = flatten_params(seq), QuantumState.ground(seq.space).amplitudes
    first = propagate_sweep(seq.space, params, ground)
    for conv, final in zip(CONVENTION_SWEEP, first):
        assert np.array_equal(final, propagate(seq.space, params, conv, ground)), conv
        assert np.array_equal(final, propagate(seq.space, params, conv, ground, True)[-1]), conv
    assert np.array_equal(propagate_sweep(seq.space, params, ground), first)


@pytest.mark.parametrize("n", [40, 41])
def test_squeeze_eigenvectors_are_written_into_the_kept_buffer(n):
    # with buffers, each call writes its (M, 2, L, L) eigenvectors into the
    # one kept array (np.take or, for odd N, np.concatenate with out=), with
    # the bits of a call that makes a new array
    rng = np.random.default_rng(79 + n)
    space = DickeSpace(n)
    buffers = {}
    held = squeeze_eigenpairs(space, rng.uniform(-1, 1, (3, 2)), buffers)[1]
    strengths = rng.uniform(-1, 1, (3, 2))
    w, v = squeeze_eigenpairs(space, strengths, buffers)
    fresh_w, fresh_v = squeeze_eigenpairs(space, strengths)
    assert v is held and [id(b) for b in buffers.values()] == [id(v)]
    assert v.shape == (3, 2, (n + 2) // 2, (n + 2) // 2)
    assert np.array_equal(w, fresh_w) and np.array_equal(v, fresh_v)
    assert not np.shares_memory(v, fresh_v)


def test_propagate_rejects_bad_inputs():
    space = DickeSpace(4)
    conv = GateConventions()
    ground = QuantumState.ground(space).amplitudes
    with pytest.raises(ValueError, match="5M \\+ 3"):
        propagate(space, np.zeros(7), conv, ground)
    with pytest.raises(DimensionMismatchError):
        propagate(space, np.zeros(8), conv, np.ones(4) / 2)
    with pytest.raises(DimensionMismatchError):
        propagate(space, np.zeros(8), conv, np.ones((5, 2, 2)) / np.sqrt(20))
    with pytest.raises(NormDriftError):
        propagate(space, [0.0, 0.0, 0.0, np.nan, 0.0, 0.0, 0.0, 0.0], conv, ground)
    with pytest.raises(NormDriftError):
        propagate(space, np.zeros(8), conv, 2 * ground)


def test_objective_binds_its_plan_once(monkeypatch):
    # after make_objective, an evaluation neither looks a plan up nor builds one
    space = DickeSpace(4)
    rng = np.random.default_rng(23)
    target = QuantumState(space, amplitudes=random_state(space, rng))
    f = make_objective(space, target, 3, GateConventions(exponent_sign=-1))
    looked_up = []
    for module in (gates, optimizer):
        monkeypatch.setattr(module, "_plan", lambda *key: looked_up.append(key))
    for _ in range(20):
        f(rng.uniform(-np.pi, np.pi, 18))
    assert looked_up == []


@pytest.mark.parametrize("n, n_steps", [(4, 3), (5, 0), (6, 1)])
def test_objective_is_one_minus_the_propagated_fidelity_bitwise(n, n_steps):
    space = DickeSpace(n)
    rng = np.random.default_rng(29 + n)
    target = QuantumState(space, amplitudes=random_state(space, rng))
    ground = QuantumState.ground(space).amplitudes
    for conv in CONVENTION_SWEEP:
        f = make_objective(space, target, n_steps, conv)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, 5 * n_steps + 3)
            expected = 1.0 - _fidelity_with_vector(propagate(space, params, conv, ground), target)
            assert f(params) == expected


@pytest.mark.parametrize("n", [4, 40])
def test_bare_objective_raises_no_warning_up_to_1e100(n):
    # the objective sets no errstate: inside the box +-PARAM_BOUND, and far
    # beyond it, no intermediate of a propagation overflows
    rng = np.random.default_rng(37)
    space = DickeSpace(n)
    target = QuantumState(space, amplitudes=random_state(space, rng))
    for conv in CONVENTION_SWEEP:
        f = make_objective(space, target, 2, conv)
        for bound in (PARAM_BOUND, 1e100):
            assert np.isfinite(f(bound * rng.choice([-1.0, 1.0], 5 * 2 + 3)))
