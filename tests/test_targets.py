from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_hermite, gammainc, gammaln

from dickesim import (
    DickeSpace,
    QuantumState,
    TargetKind,
    TargetSpec,
    TruncationError,
    TruncationWarning,
    fidelity,
    make_target,
)
from dickesim.targets import (
    _GKP_LATTICES,
    _LATTICE_MARGIN,
    _lattice_amplitudes,
    coherent_amplitudes,
    coherent_tail_weight,
)


# the 10 dB grid states, truncated on purpose at the N each test uses
SQUARE_10DB = TargetSpec(TargetKind.GKP_SQUARE, squeezing_db=10.0, allow_truncation=True)
HEX_10DB = TargetSpec(TargetKind.GKP_HEX, squeezing_db=10.0, allow_truncation=True)


def coherent_overlap(gamma, delta):
    """Closed form <gamma|delta> = exp(-|g|^2/2 - |d|^2/2 + conj(g) d)."""
    return np.exp(-0.5 * abs(gamma) ** 2 - 0.5 * abs(delta) ** 2 + np.conj(gamma) * delta)


def test_coherent_gamma_zero_is_ground():
    st = make_target(TargetSpec(TargetKind.COHERENT, gamma=0.0), DickeSpace(10))
    assert st.amplitudes[0] == pytest.approx(1.0)
    assert np.all(st.amplitudes[1:] == 0)


def test_coherent_normalized():
    st = make_target(TargetSpec(TargetKind.COHERENT, gamma=3.0), DickeSpace(40))
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_coherent_tail_against_brute_force_poisson():
    # oracle: explicit Poisson partial sums
    lam = 9.0
    terms = np.exp(-lam + np.arange(200) * np.log(lam) - gammaln(np.arange(200) + 1))
    for n in (20, 30, 40):
        brute = terms[n + 1:].sum()
        assert coherent_tail_weight(n, 3.0) == pytest.approx(brute, rel=1e-8, abs=1e-18)
    assert coherent_tail_weight(40, 3.0) < 1e-12
    # oracle: scipy's regularized incomplete gamma P(N+1, |gamma|^2), on both
    # sides of the lam = N+1 branch point and far beyond it
    for n in range(1, 201):
        for lam in [*np.geomspace(1e-6, 2 * n, 40), 10 * n, 1e4]:
            tail = coherent_tail_weight(n, np.sqrt(lam))
            # scipy flushes subnormal results to zero
            assert tail == pytest.approx(gammainc(n + 1, lam), rel=1e-12, abs=1e-300)
    assert coherent_tail_weight(4, 40.0) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 200), gamma=st.complex_numbers(max_magnitude=60, allow_nan=False))
def test_coherent_tail_is_a_probability(n, gamma):
    tail = coherent_tail_weight(n, gamma)
    assert 0.0 <= tail <= 1.0
    assert tail == pytest.approx(gammainc(n + 1, abs(gamma) ** 2), rel=1e-12, abs=1e-300)


def test_coherent_overlap_identity():
    space = DickeSpace(60)
    for g, d in [(1.5, -0.5 + 1j), (2.0, 2.0), (0.3j, 1.1)]:
        a = make_target(TargetSpec(TargetKind.COHERENT, gamma=g), space)
        b = make_target(TargetSpec(TargetKind.COHERENT, gamma=d), space)
        inner = np.vdot(a.amplitudes, b.amplitudes)
        assert inner == pytest.approx(coherent_overlap(g, d), abs=1e-8)


@pytest.mark.parametrize("n, gamma", [(40, -3.0), (40, 3.0), (480, -17.0), (480, 17.0)])
def test_coherent_amplitudes_on_an_axis_have_exact_phases(n, gamma):
    # the phases are powers of gamma/|gamma|: +-1 for a real gamma, whose
    # amplitudes are then real (exp(i n angle(gamma)) left imaginary parts
    # of 4e-15 at N = 40 and 9e-14 at N = 480), and +-i for an imaginary one
    target = make_target(TargetSpec(TargetKind.COHERENT, gamma=gamma), DickeSpace(n))
    assert np.all(target.amplitudes.imag == 0)
    amps = coherent_amplitudes(n, gamma)
    assert np.all(amps.imag == 0)
    assert np.array_equal(amps, coherent_amplitudes(n, complex(gamma, -0.0)))
    turned = coherent_amplitudes(n, 1j * gamma)
    assert np.all(turned[::2].imag == 0) and np.all(turned[1::2].real == 0)
    assert np.array_equal(np.abs(turned), np.abs(amps))


def test_coherent_warns_when_space_too_small():
    # gamma = 3 at N = 22 leaves a tail of ~7e-5: inside the warn window
    with pytest.warns(TruncationWarning):
        make_target(TargetSpec(TargetKind.COHERENT, gamma=3.0), DickeSpace(22))


def test_coherent_errors_when_space_far_too_small():
    # gamma = 40 at N = 4 puts nearly all the weight beyond |4>
    for n, gamma in ((17, 3.0), (4, 40.0)):
        with pytest.raises(TruncationError):
            make_target(TargetSpec(TargetKind.COHERENT, gamma=gamma), DickeSpace(n))


def test_cat2_gamma_zero_collapses_to_ground():
    st = make_target(TargetSpec(TargetKind.CAT2, gamma=0.0), DickeSpace(8))
    assert abs(st.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_cat2_overlap_with_opposite_parity_cat():
    # oracle: expand <(|g>-i|-g>) | (|g>+i|-g>)> into closed-form coherent overlaps
    g = 1.2  # modest so the truncation tail is negligible at N=40
    space = DickeSpace(40)
    from dickesim.targets import coherent_amplitudes

    leg_p = coherent_amplitudes(40, g)
    leg_m = coherent_amplitudes(40, -g)
    minus_vec = leg_p - 1j * leg_m
    plus_vec = leg_p + 1j * leg_m
    # <g|g> + i<g|-g> + i<-g|g> - <-g|-g>
    analytic = (coherent_overlap(g, g) + 1j * coherent_overlap(g, -g)
                + 1j * coherent_overlap(-g, g) - coherent_overlap(-g, -g))
    assert np.vdot(minus_vec, plus_vec) == pytest.approx(analytic, abs=1e-8)
    minus = make_target(TargetSpec(TargetKind.CAT2, gamma=g), space)
    plus_state = QuantumState.from_amplitudes(space, plus_vec, normalize=True)
    expected_sq = abs(analytic) ** 2 / (np.linalg.norm(minus_vec)
                                        * np.linalg.norm(plus_vec)) ** 2
    assert fidelity(minus, plus_state) == pytest.approx(expected_sq, abs=1e-8)


def test_cat4_sector_support():
    # for phi a multiple of pi/2 the four legs interfere to a single n mod 4 sector
    space = DickeSpace(40)
    for mult, sector in [(0, 0), (1, 3), (2, 2), (3, 1)]:
        st = make_target(TargetSpec(TargetKind.CAT4, gamma=3.0, phi=mult * np.pi / 2), space)
        n = np.arange(41)
        off_sector = np.abs(st.amplitudes[n % 4 != sector])
        assert np.max(off_sector) < 1e-12


def test_cat4_generic_phi_spans_sectors():
    st = make_target(TargetSpec(TargetKind.CAT4, gamma=3.0, phi=np.pi / 4), DickeSpace(40))
    n = np.arange(41)
    weights = [np.sum(np.abs(st.amplitudes[n % 4 == j]) ** 2) for j in range(4)]
    assert weights[0] > 0.3 and weights[3] > 0.3


def test_gkp_envelope_parameter():
    assert 10 ** (-10.0 / 20) == pytest.approx(0.31622776601, abs=1e-10)


def _position_oracle_square(n_emitters, spacing, offset, db):
    """Independent construction: finite-energy peaks in position space.

    Applies the e^(-Delta^2 n) envelope through its position-space kernel
    (sum over Mehler-damped peaks), then projects onto oscillator
    eigenfunctions by quadrature.
    """
    delta = 10 ** (-db / 20)
    rho = np.exp(-delta ** 2)
    peaks = offset + spacing * np.arange(-10, 11)
    x = np.linspace(-24, 24, 14001)
    dx = x[1] - x[0]
    psi = np.zeros_like(x)
    for y in peaks:
        psi += (np.pi * (1 - rho ** 2)) ** -0.5 * np.exp(
            (2 * x * y * rho - (x ** 2 + y ** 2) * rho ** 2) / (1 - rho ** 2)
            - (x ** 2 + y ** 2) / 2)
    coeffs = np.empty(n_emitters + 1)
    for n in range(n_emitters + 1):
        lognorm = -0.5 * (n * np.log(2.0) + gammaln(n + 1)) - 0.25 * np.log(np.pi)
        phi_n = eval_hermite(n, x) * np.exp(-x * x / 2 + lognorm)
        coeffs[n] = np.trapezoid(phi_n * psi, dx=dx)
    return coeffs / np.linalg.norm(coeffs)


def test_gkp_square_matches_position_oracle():
    space = DickeSpace(40)
    with pytest.warns(TruncationWarning):
        st = make_target(SQUARE_10DB, space)
    oracle = _position_oracle_square(40, np.sqrt(2 * np.pi), 0.0, 10.0)
    oracle_state = QuantumState.from_amplitudes(space, oracle, normalize=True)
    assert fidelity(st, oracle_state) > 1 - 1e-6


def test_gkp_square_codewords_match_position_oracle():
    space = DickeSpace(40)
    for codeword, offset in [("zero", 0.0), ("one", np.sqrt(np.pi))]:
        with pytest.warns(TruncationWarning):
            st = make_target(replace(SQUARE_10DB, gkp_codeword=codeword), space)
        oracle = _position_oracle_square(40, 2 * np.sqrt(np.pi), offset, 10.0)
        oracle_state = QuantumState.from_amplitudes(space, oracle, normalize=True)
        assert fidelity(st, oracle_state) > 1 - 1e-6


def test_gkp_square_amplitudes_real_and_even():
    with pytest.warns(TruncationWarning):
        st = make_target(SQUARE_10DB, DickeSpace(40))
    assert np.max(np.abs(st.amplitudes.imag)) < 1e-12
    odd = np.abs(st.amplitudes[1::2])
    assert np.max(odd) < 1e-12


def test_gkp_square_fourfold_symmetry():
    # the sensor state is invariant under a 90-degree phase-space rotation
    with pytest.warns(TruncationWarning):
        st = make_target(SQUARE_10DB, DickeSpace(44))
    n = np.arange(45)
    rotated = QuantumState.from_amplitudes(
        DickeSpace(44), st.amplitudes * np.exp(-1j * (np.pi / 2) * n), normalize=True)
    assert fidelity(st, rotated) > 1 - 1e-10


def _comb_mpmath(n_max, spacing, offset):
    """sum over teeth x of phi_n(x), n = 0..n_max, each tooth by the Hermite
    recurrence from pi^(-1/4) e^(-x^2/2) at 30 digits, where no Gaussian
    underflows.  Teeth run out to sqrt(2 n_max) + 8, past the kernel's cut;
    the two extra units change nothing above 1e-40."""
    import mpmath

    with mpmath.workdps(30):
        spacing, offset = mpmath.mpf(spacing), mpmath.mpf(offset)
        cut = mpmath.sqrt(2 * n_max) + 8
        s_max = int(mpmath.ceil((cut + abs(offset)) / spacing))
        teeth = [offset + s * spacing for s in range(-s_max, s_max + 1)]
        teeth = [x for x in teeth if abs(x) <= cut]
        roots = [mpmath.sqrt(n) for n in range(n_max + 1)]
        out = [mpmath.mpf(0)] * (n_max + 1)
        for x in teeth:
            prev, cur = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)
            out[0] += cur
            for n in range(1, n_max + 1):
                prev, cur = cur, (mpmath.sqrt(2) * x * cur - roots[n - 1] * prev) / roots[n]
                out[n] += cur
        return np.array([float(v) for v in out])


@pytest.mark.parametrize("n_max", [200, 400, 496, 800, 1600])
def test_square_comb_matches_per_tooth_mpmath_sum(n_max):
    # the square lattice sums are position combs up to a constant positive
    # factor, so both sides are compared normalized.  Up to n_max = 496
    # (N = 124) every tooth lies within sqrt(992) + 6 = 37.496; from
    # n_max = 500 on the comb holds teeth past |x| ~ 37.6, whose e^{-x^2/2}
    # underflows in double; at 800 they carry the large-n amplitudes
    for codeword, spacing, offset in (("sensor", np.sqrt(2 * np.pi), 0.0),
                                      ("one", 2 * np.sqrt(np.pi), np.sqrt(np.pi))):
        ref = _comb_mpmath(n_max, spacing, offset)
        fast = _lattice_amplitudes(n_max, *_GKP_LATTICES[TargetKind.GKP_SQUARE, codeword])
        ref, fast = ref / np.linalg.norm(ref), fast / np.linalg.norm(fast)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref)), (n_max, codeword)


def _displacement_expectation(amps, alpha, cutoff=200):
    """<D(alpha)> via an independent route: scipy expm of the truncated ladder."""
    from scipy.linalg import expm

    a = np.zeros((cutoff, cutoff), dtype=complex)
    n = np.arange(cutoff - 1)
    a[n, n + 1] = np.sqrt(n + 1.0)
    disp = expm(alpha * a.conj().T - np.conj(alpha) * a)
    vec = np.zeros(cutoff, dtype=complex)
    vec[:len(amps)] = amps
    return np.vdot(vec, disp @ vec)


def test_gkp_stabilizer_expectations():
    # grid states score high on their lattice displacements, low off-lattice
    with pytest.warns(TruncationWarning):
        hx = make_target(HEX_10DB, DickeSpace(48))
    ell = np.sqrt(4 * np.pi / np.sqrt(3))
    gen1 = ell / np.sqrt(2)
    gen2 = ell * (0.5 + 1j * np.sqrt(3) / 2) / np.sqrt(2)
    for gen in (gen1, gen2):
        ev = _displacement_expectation(hx.amplitudes, gen)
        assert ev.real > 0.8 and abs(ev.imag) < 1e-6
    assert abs(_displacement_expectation(hx.amplitudes, gen1 / 2)) < 0.05

    with pytest.warns(TruncationWarning):
        sq = make_target(SQUARE_10DB, DickeSpace(48))
    gen = np.sqrt(2 * np.pi) / np.sqrt(2)
    for g in (gen, 1j * gen):
        ev = _displacement_expectation(sq.amplitudes, g)
        assert ev.real > 0.8 and abs(ev.imag) < 1e-6
    assert abs(_displacement_expectation(sq.amplitudes, gen / 2)) < 0.05


def test_gkp_hex_half_turn_symmetry():
    # the hex lattice state is invariant under a 180-degree phase-space
    # rotation but not under 90 degrees (which the square state survives)
    with pytest.warns(TruncationWarning):
        st = make_target(HEX_10DB, DickeSpace(48))
    n = np.arange(49)
    half_turn = QuantumState.from_amplitudes(
        DickeSpace(48), st.amplitudes * np.exp(-1j * np.pi * n), normalize=True)
    assert fidelity(st, half_turn) > 1 - 1e-10
    quarter = QuantumState.from_amplitudes(
        DickeSpace(48), st.amplitudes * np.exp(-1j * (np.pi / 2) * n), normalize=True)
    assert fidelity(st, quarter) < 0.9


def _coherent_sum_longdouble(n_max, mus, weights, chunk=256):
    """sum_k weights_k |mus_k> on n = 0..n_max, all in np.longdouble: each
    magnitude as exp(n log|mu| - log(n!)/2 - |mu|^2/2) and each phase as a
    power of mu/|mu|.  In double precision that exponent, up to ~1e4 in
    size, carries an absolute error of ~1e-12, which would dwarf the
    kernel's own error."""
    ld = np.longdouble
    n = np.arange(n_max + 1, dtype=ld)
    half_log_factorials = np.concatenate([[ld(0)], np.cumsum(np.log(n[1:]))]) / 2
    out = np.zeros(n_max + 1, dtype=np.clongdouble)
    for lo in range(0, len(mus), chunk):
        mu, w = mus[lo:lo + chunk, None], weights[lo:lo + chunk, None]
        mag = np.abs(mu)
        powers = np.repeat(np.where(mag > 0, mu / np.where(mag > 0, mag, 1), 1), n_max + 1, 1)
        powers[:, 0] = 1
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at mu = 0, times n = 0
            expo = np.where(n == 0, 0, n * np.log(mag)) - half_log_factorials - mag ** 2 / 2
        out += (w * np.exp(expo) * np.cumprod(powers, axis=1)).sum(axis=0)
    return out.astype(complex)


def _lattice_longdouble(kind, codeword):
    """(g1, g2, shift) of a grid state's lattice in np.longdouble, in units
    (x + ip)/sqrt(2), derived from the code's cell area A = 2 pi (sensor) or
    4 pi in the (x, p) plane: square g1 = sqrt(A/2) and g2 = i pi / g1, so
    each codeword's own cell has area pi in these units; hexagonal
    g1 = sqrt(A/sqrt(3)) and g2 = g1 e^{i pi/3}, the code's cell; "one" is
    "zero" shifted by g1 / 2."""
    ld, pi = np.longdouble, 4 * np.arctan(np.longdouble(1))
    area = 2 * pi if codeword == "sensor" else 4 * pi
    if kind is TargetKind.GKP_SQUARE:
        g1 = np.sqrt(area / 2)
        g2 = np.clongdouble(1j) * (pi / g1)
    else:
        g1 = np.sqrt(area / np.sqrt(ld(3)))
        g2 = g1 * (np.clongdouble(0.5) + np.clongdouble(1j) * (np.sqrt(ld(3)) / 2))
    return g1, g2, g1 / 2 if codeword == "one" else ld(0)


@pytest.mark.parametrize("kind, codeword", list(_GKP_LATTICES),
                         ids=lambda v: getattr(v, "value", v))
def test_lattice_matches_per_point_coherent_sum(kind, codeword):
    # oracle: the lattice points shift + lam inside the amplitude cut, with the
    # stabilizer phase s t Im(g1 conj(g2)) of D(s g1) D(t g2) and
    # Im(shift conj(lam)) of the codeword shift on the left, all formed in
    # np.longdouble and summed as coherent vectors by _coherent_sum_longdouble.
    # From n_max = 1200 (N = 300) on, the cut holds points with |lam| > 38.6,
    # whose e^{-|lam|^2/2} underflows in double; at 1920 (N = 480) they carry
    # the amplitudes near n_max.
    g1, g2, shift = _lattice_longdouble(kind, codeword)
    for n_max in (200, 1200, 1920):
        amp_cut = np.sqrt(n_max) + _LATTICE_MARGIN
        r = int(2 * amp_cut / float(min(g1, g2.imag))) + 2
        s, t = (a.ravel() for a in np.mgrid[-r:r + 1, -r:r + 1])
        lam = s * g1 + t * g2
        keep = np.abs(lam + shift) <= amp_cut
        s, t, lam = s[keep], t[keep], lam[keep]
        phase = s * t * np.imag(g1 * np.conj(g2)) + np.imag(shift * np.conj(lam))
        ref = _coherent_sum_longdouble(n_max, lam + shift, np.cos(phase) + 1j * np.sin(phase))
        fast = _lattice_amplitudes(n_max, *_GKP_LATTICES[kind, codeword])
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref)), n_max


def test_target_spec_dict_roundtrip():
    specs = [TargetSpec(TargetKind.CAT4, gamma=2 - 1j, phi=0.3),
             TargetSpec(TargetKind.GKP_HEX, squeezing_db=8.0, gkp_codeword="one",
                        allow_truncation=True),
             TargetSpec(TargetKind.CUSTOM, custom_amplitudes=(1.0, 0.5j, -0.25))]
    for spec in specs:
        doc = spec.to_dict()
        assert list(doc) == ["kind", "gamma", "phi", "squeezing_db", "gkp_codeword",
                             "allow_truncation", "custom"]
        assert TargetSpec.from_dict(doc) == spec
    assert TargetSpec.from_dict({"kind": "cat2", "gamma": 2}).gamma == 2.0


@pytest.mark.parametrize("doc", [{"gamma": [3.0, 0.0]}, {"kind": "cat2", "gamma": [3.0]},
                                 {"kind": "cat2", "phi": None}, {"kind": "squeezed"},
                                 {"kind": "custom", "custom": [[1, 0, 0]]}, "cat2"])
def test_target_spec_from_dict_rejects_malformed(doc):
    with pytest.raises((TypeError, ValueError)):
        TargetSpec.from_dict(doc)


def test_gkp_truncation_error_names_minimum_n():
    with pytest.raises(TruncationError, match=r"need N >= \d+"):
        make_target(TargetSpec(TargetKind.GKP_SQUARE, squeezing_db=10.0), DickeSpace(20))


def test_gkp_rejects_nonpositive_db():
    with pytest.raises(ValueError):
        make_target(TargetSpec(TargetKind.GKP_SQUARE, squeezing_db=-3.0), DickeSpace(20))


@pytest.mark.parametrize("spec, message", [
    (TargetSpec(TargetKind.GKP_HEX, squeezing_db=0.0), "squeezing_db must be positive"),
    (TargetSpec(TargetKind.CUSTOM), "requires custom_amplitudes"),
    (TargetSpec(TargetKind.CUSTOM, custom_amplitudes=()), "cannot normalize the zero vector"),
    (TargetSpec(TargetKind.CUSTOM, custom_amplitudes=(0.0, 0j)), "cannot normalize"),
    (TargetSpec(TargetKind.CAT2, gamma=1e308), "gamma must have real and imaginary"),
    (TargetSpec(TargetKind.CAT4, phi=-1e308), "phi must lie within"),
])
def test_spec_check_raises_what_make_target_raises_at_every_n(spec, message):
    with pytest.raises(ValueError, match=message):
        spec.check()
    for n in (1, 4, 40):
        with pytest.raises(ValueError, match=message):
            make_target(spec, DickeSpace(n))


def test_make_target_custom_passthrough():
    space = DickeSpace(4)
    spec = TargetSpec(TargetKind.CUSTOM, custom_amplitudes=(1.0, 0.0, 0.0, 0.0, 0.0))
    st = make_target(spec, space)
    assert abs(st.amplitudes[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("gamma, phi", [(3.0, np.pi / 4), (2 + 1j, 0.3), (0.2, -2.0)])
def test_coherent_leg_kinds_match_their_definitions(gamma, phi):
    # normalize(sum_k w_k |g_k>), one coherent_amplitudes vector per leg; gamma
    # is complex, as a spec read from JSON or the CLI holds it
    gamma = complex(gamma)
    legs = {TargetKind.COHERENT: [(1, gamma)],
            TargetKind.CAT2: [(1, gamma), (-1j, -gamma)],
            TargetKind.CAT4: [(np.exp(1j * k * phi), 1j ** k * gamma) for k in range(4)]}
    for kind, kind_legs in legs.items():
        vec = sum(w * coherent_amplitudes(40, g) for w, g in kind_legs)
        st = make_target(TargetSpec(kind, gamma=gamma, phi=phi), DickeSpace(40))
        assert np.max(np.abs(st.amplitudes - vec / np.linalg.norm(vec))) <= 1e-15


@pytest.mark.parametrize("kind, name", [(TargetKind.COHERENT, "coherent state"),
                                        (TargetKind.CAT2, "2-cat"), (TargetKind.CAT4, "4-cat")])
def test_allow_truncation_holds_for_coherent_leg_kinds(kind, name):
    # gamma = 3 at N = 10 leaves the leg's Poisson tail 0.294 beyond |10>
    space = DickeSpace(10)
    with pytest.raises(TruncationError, match=rf"^{name} gamma=3.0 leaves weight 2.940e-01"):
        make_target(TargetSpec(kind, gamma=3.0), space)
    with pytest.warns(TruncationWarning, match=rf"^{name} gamma=3.0 leaves weight 2.940e-01"):
        st = make_target(TargetSpec(kind, gamma=3.0, allow_truncation=True), space)
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # at gamma = 40 every amplitude kept at N = 4 underflows: nothing to normalize
    with pytest.warns(TruncationWarning), pytest.raises(
            TruncationError, match=rf"^{name} gamma=40.0 leaves no amplitude at or below \|4>"):
        make_target(TargetSpec(kind, gamma=40.0, allow_truncation=True), DickeSpace(4))


@pytest.mark.parametrize("spec", [SQUARE_10DB, TargetSpec(TargetKind.CAT2, gamma=3.0)])
def test_truncation_warning_names_the_caller(spec):
    with pytest.warns(TruncationWarning) as record:
        make_target(spec, DickeSpace(22))
    assert [w.filename for w in record] == [__file__]


def test_every_target_normalized():
    space = DickeSpace(40)
    specs = [
        TargetSpec(TargetKind.COHERENT, gamma=2.0),
        TargetSpec(TargetKind.CAT2, gamma=3.0),
        TargetSpec(TargetKind.CAT4, gamma=3.0, phi=np.pi / 4),
        TargetSpec(TargetKind.GKP_SQUARE, allow_truncation=True),
        TargetSpec(TargetKind.GKP_HEX, allow_truncation=True),
    ]
    import warnings

    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            st = make_target(spec, space)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-10)
