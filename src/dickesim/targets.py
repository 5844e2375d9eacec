"""Target states in the Dicke basis: coherent, cat, and GKP states.

Bosonic constructions are mapped onto the symmetric basis by identifying the
Fock amplitude of |n> with the Dicke amplitude of |n>, truncating at n = N and
renormalizing.  :func:`make_target` builds every kind and polices the
truncation once: a pre-normalization tail weight above ``WARN_TAIL`` emits a
:class:`TruncationWarning`, above ``ERROR_TAIL`` it raises (the space is too
small for the requested state) unless the spec allows truncation.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import DickeSpace, QuantumState

WARN_TAIL = 1e-6
ERROR_TAIL = 1e-4
MAX_GAMMA = 1e150  # per part of gamma: |gamma|^2, the mean excitation, stays finite
MAX_PHI = 1e15  # the largest cat4 leg phase, 3 phi, stays below 2^52 rad
_TINY = np.finfo(float).tiny
_LATTICE_CHUNK = 32  # Fock levels per block of the grid-state lattice recurrence
# The grid-state lattice sums keep |mu| <= sqrt(n_max) + _LATTICE_MARGIN, which
# leaves out below 1e-14 of the largest ideal amplitude (5 leaves out up to 1e-11).
_LATTICE_MARGIN = 6.0


class TruncationWarning(UserWarning):
    """The requested state does not quite fit in N+1 levels."""


class TruncationError(ValueError):
    """The requested state decisively does not fit in N+1 levels."""


class TargetKind(enum.Enum):
    COHERENT = "coherent"
    CAT2 = "cat2"
    CAT4 = "cat4"
    GKP_SQUARE = "gkp-square"
    GKP_HEX = "gkp-hexagonal"
    CUSTOM = "custom"


# Which grid state on the lattice.  "sensor" is the single-state code whose
# stabilizer cell has area 2*pi (position comb at spacing sqrt(2*pi) for the
# square lattice); "zero"/"one" are the codewords of the two-state code with
# cell area 4*pi (square: combs at spacing 2*sqrt(pi), offset 0 or sqrt(pi)).
GKP_CODEWORDS = ("sensor", "zero", "one")


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of a target state."""

    kind: TargetKind
    gamma: complex = 3.0
    phi: float = np.pi / 4
    squeezing_db: float = 10.0
    gkp_codeword: str = "sensor"
    allow_truncation: bool = False
    custom_amplitudes: Optional[Tuple[complex, ...]] = None

    def __post_init__(self):
        if not isinstance(self.kind, TargetKind):
            object.__setattr__(self, "kind", TargetKind(self.kind))
        if self.gkp_codeword not in GKP_CODEWORDS:
            raise ValueError(f"gkp_codeword must be one of {GKP_CODEWORDS}")

    def check(self, label: Callable[[str], str] = str) -> None:
        """Raise the ValueError that :func:`make_target` raises for this spec
        at every N.  Truncation and length errors depend on N and are left
        to it.  Non-finite parameters, and a gamma or phi too large to
        compute with, are rejected for every kind.  ``label`` names a field
        in the message (the CLI passes its flag names)."""
        for name, value in (("gamma", self.gamma), ("phi", self.phi),
                            ("squeezing_db", self.squeezing_db)):
            if not np.isfinite(value):
                raise ValueError(f"{label(name)} must be finite, got {value}")
        if not max(abs(self.gamma.real), abs(self.gamma.imag)) <= MAX_GAMMA:
            raise ValueError(f"{label('gamma')} must have real and imaginary parts within "
                             f"+-{MAX_GAMMA:g} (|gamma|^2 must be finite), got {self.gamma}")
        if not abs(self.phi) <= MAX_PHI:
            raise ValueError(f"{label('phi')} must lie within +-{MAX_PHI:g} "
                             f"(3 phi must keep a digit below 2^52 rad), got {self.phi}")
        if self.kind in (TargetKind.GKP_SQUARE, TargetKind.GKP_HEX) and not self.squeezing_db > 0:
            raise ValueError(f"{label('squeezing_db')} must be positive")
        amps = np.asarray(self.custom_amplitudes or (), dtype=complex)
        if not np.isfinite(amps).all():
            raise ValueError("custom amplitudes must be finite")
        if self.kind is TargetKind.CUSTOM:
            if self.custom_amplitudes is None:
                raise ValueError("custom target requires custom_amplitudes")
            if not amps.any():  # no norm: huge amplitudes would overflow it
                raise ValueError("cannot normalize the zero vector")

    def to_dict(self) -> dict:
        """JSON form, as stored in result records and sequence-file metadata."""
        return {
            "kind": self.kind.value,
            "gamma": [self.gamma.real, self.gamma.imag],
            "phi": self.phi,
            "squeezing_db": self.squeezing_db,
            "gkp_codeword": self.gkp_codeword,
            "allow_truncation": self.allow_truncation,
            "custom": [[c.real, c.imag] for c in self.custom_amplitudes]
            if self.custom_amplitudes else None,
        }

    @classmethod
    def from_dict(cls, doc) -> "TargetSpec":
        """Inverse of :meth:`to_dict`.  Only ``kind`` is required; ``gamma``
        may also be a bare number.  Malformed input raises ValueError or
        TypeError."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("expected an object with a 'kind' key")
        gamma, custom = doc.get("gamma", [3.0, 0.0]), doc.get("custom")
        if isinstance(gamma, list) and len(gamma) != 2:
            raise ValueError(f"gamma is {gamma!r}; expected a number or an [re, im] pair")
        return cls(kind=TargetKind(doc["kind"]),
                   gamma=complex(*gamma) if isinstance(gamma, list) else complex(gamma),
                   phi=float(doc.get("phi", np.pi / 4)),
                   squeezing_db=float(doc.get("squeezing_db", 10.0)),
                   gkp_codeword=doc.get("gkp_codeword", "sensor"),
                   allow_truncation=bool(doc.get("allow_truncation", False)),
                   custom_amplitudes=None if custom is None else amplitudes_from_json(custom))


def amplitudes_from_json(raw) -> Tuple[complex, ...]:
    """Amplitudes from JSON: a list whose entries are each a real number or an
    [re, im] pair of real numbers."""
    if not isinstance(raw, list):
        raise ValueError("custom amplitudes must be a JSON list")
    is_real = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    out = []
    for idx, v in enumerate(raw):
        parts = v if isinstance(v, list) else [v, 0.0]
        if len(parts) != 2 or not all(map(is_real, parts)):
            raise ValueError(f"custom amplitude {idx} is {v!r}; expected a real number "
                             "or an [re, im] pair")
        out.append(complex(parts[0], parts[1]))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _fock_logs(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """(n, log(n!)/2) for n = 0..n_max; read-only, since every caller shares them."""
    n = np.arange(n_max + 1.0)
    half_log_factorials = 0.5 * np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    for table in (n, half_log_factorials):
        table.flags.writeable = False
    return n, half_log_factorials


def coherent_amplitudes(n_max: int, gamma) -> np.ndarray:
    """Exact coherent amplitudes e^(-|g|^2/2) g^n / sqrt(n!) for n = 0..n_max,
    along a last axis appended to the shape of ``gamma`` (scalar or array).

    The magnitudes are formed in log space and the phases e^(i n arg g) as
    powers of g/|g| by repeated multiplication, so a g on an axis has exact
    phases: a real g gives imaginary parts of exactly 0, and -3.0 and -3-0j
    the same amplitudes."""
    n, half_log_factorials = _fock_logs(n_max)
    gamma = np.asarray(gamma, dtype=complex)[..., None]
    mag = np.abs(gamma)
    # the floor acts only below the smallest normal |g| (g = 0 included),
    # where g / floor still makes |g|^n = floor^n |g / floor|^n
    floor = np.maximum(mag, _TINY)
    powers = np.empty(gamma.shape[:-1] + (n_max + 1,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = gamma / floor
    np.cumprod(powers, axis=-1, out=powers)
    return np.exp(n * np.log(floor) - half_log_factorials - 0.5 * mag ** 2) * powers


def coherent_tail_weight(n_emitters: int, gamma: complex) -> float:
    """Probability weight of the coherent state beyond |N>: the Poisson tail
    sum_{n>N} e^(-lam) lam^n / n! with lam = |gamma|^2, which is the
    regularized incomplete gamma P(N+1, lam) (Abramowitz and Stegun 6.5).

    Each branch starts at its largest term, so the first term underflows only
    when the whole sum is negligible: for lam <= N+1 the tail is summed
    upward from n = N+1, otherwise 1 - head with the head summed downward
    from n = N (for lam >> N the head underflows and the tail is 1).
    """
    lam = abs(complex(gamma)) ** 2
    if lam == 0:
        return 0.0
    upward = lam <= n_emitters + 1
    n = n_emitters + 1 if upward else n_emitters
    term = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
    total = 0.0
    while term > 1e-17 * total:
        total += term
        if upward:
            n += 1
            term *= lam / n
        else:  # reaches 0 after the n = 0 term
            term *= n / lam
            n -= 1
    return total if upward else 1.0 - total


def _lattice_amplitudes(n_max: int, g1: float, g2: complex, shift: float) -> np.ndarray:
    """Fock amplitudes of an ideal grid state, a coherent sum over its lattice.

    The state is D(shift) sum_lambda D(lambda)|0>, lambda = s g1 + t g2 over
    the lattice of a positive g1 and a g2 in the upper half plane, with the
    displacement-composition phases of the stabilizer group: sum_k c_k |mu_k>
    over the points mu_k = shift + lambda_k within the amplitude cut
    sqrt(n_max) + _LATTICE_MARGIN.  All points advance together by the
    recurrence a_n = a_{n-1} mu / sqrt(n), from a_0 = c e^{-|mu|^2/2},
    _LATTICE_CHUNK levels at a time.  Each point carries its own power-of-two
    exponent, renormalized between chunks, since e^{-|mu|^2/2} alone
    underflows past |mu| ~ 38.6 (inside the cut from N ~ 266 on).  Memory is
    O(points + n_max).
    """
    amp_cut = np.sqrt(n_max) + _LATTICE_MARGIN
    t_max = int(np.ceil(amp_cut / g2.imag)) + 1
    s_max = int(np.ceil(amp_cut / g1 + t_max * abs(g2.real) / g1)) + 1
    t, s = np.mgrid[-t_max:t_max + 1, -s_max:s_max + 1]
    lam = s * g1 + t * g2
    keep = np.abs(lam + shift) <= amp_cut
    s, t, lam = s[keep], t[keep], lam[keep]
    mu = lam + shift
    # D(s g1) D(t g2) = e^{i s t Im(g1 conj(g2))} D(s g1 + t g2); the codeword
    # shift on the left adds e^{i Im(shift conj(lam))}.
    phase = s * t * np.imag(g1 * np.conj(g2)) + np.imag(shift * np.conj(lam))
    # a point's amplitude at the first level lo of the current chunk is
    # mantissa * 2^exponent; at lo = 0 it is e^{i phase} e^{-|mu|^2/2}
    log2_start = (-0.5 / math.log(2.0)) * np.abs(mu) ** 2
    exponent = np.floor(log2_start)
    mantissa = np.exp(1j * phase) * np.exp2(log2_start - exponent)
    exponent = exponent.astype(int)
    # a_{lo+j} = a_lo mu^j ratios[j], ratios[j] = 1 / sqrt((lo+1)...(lo+j)),
    # with powers[j] = mu^j for j <= _LATTICE_CHUNK
    powers = np.empty((_LATTICE_CHUNK + 1, mu.size), dtype=complex)
    powers[0] = 1.0
    powers[1:] = mu
    np.cumprod(powers, axis=0, out=powers)
    inv_roots = 1.0 / np.sqrt(np.arange(1.0, n_max + _LATTICE_CHUNK + 1))
    out = np.empty(n_max + 1, dtype=complex)
    for lo in range(0, n_max + 1, _LATTICE_CHUNK):
        size = min(_LATTICE_CHUNK, n_max + 1 - lo)
        ratios = np.cumprod(np.concatenate(([1.0], inv_roots[lo:lo + _LATTICE_CHUNK])))
        # a point that underflows here grows by at most |mu|^31 / sqrt(31!)
        # within the chunk (2^118 at N = 480), so it stays negligible
        amps = np.ldexp(mantissa.view(float).reshape(-1, 2), exponent[:, None])
        out[lo:lo + size] = ratios[:size] * (powers[:size] @ amps.view(complex).ravel())
        following = mantissa * powers[-1] * ratios[-1]
        _, shift_by = np.frexp(np.abs(following))
        mantissa = np.ldexp(following.view(float).reshape(-1, 2),
                            -shift_by[:, None]).view(complex).ravel()
        exponent += shift_by
    return out


# (g1, g2, shift) of each grid state's lattice, as displacements (x + ip)/sqrt(2);
# see GKP_CODEWORDS.  The square cells are sqrt(pi) x sqrt(pi) and
# sqrt(2 pi) x sqrt(pi/2), and "one" is "zero" shifted by half its g1.
_HEX_2PI, _HEX_4PI = (np.sqrt(area / np.sqrt(3)) for area in (2 * np.pi, 4 * np.pi))
_HEX_TURN = 0.5 + 0.5j * np.sqrt(3)
_GKP_LATTICES = {
    (TargetKind.GKP_SQUARE, "sensor"): (np.sqrt(np.pi), 1j * np.sqrt(np.pi), 0.0),
    (TargetKind.GKP_SQUARE, "zero"): (np.sqrt(2 * np.pi), 1j * np.sqrt(np.pi / 2), 0.0),
    (TargetKind.GKP_SQUARE, "one"): (np.sqrt(2 * np.pi), 1j * np.sqrt(np.pi / 2),
                                     np.sqrt(np.pi / 2)),
    (TargetKind.GKP_HEX, "sensor"): (_HEX_2PI, _HEX_2PI * _HEX_TURN, 0.0),
    (TargetKind.GKP_HEX, "zero"): (_HEX_4PI, _HEX_4PI * _HEX_TURN, 0.0),
    (TargetKind.GKP_HEX, "one"): (_HEX_4PI, _HEX_4PI * _HEX_TURN, _HEX_4PI / 2),
}


def _grid_amplitudes(n_emitters: int, spec: TargetSpec) -> Tuple[np.ndarray, float, int]:
    """A finite-energy GKP target before truncation: (amplitudes on
    n = 0..max(4N, 200), weight beyond |N>, least N within ERROR_TAIL).

    The ideal grid state is built in the Fock basis and damped by the envelope
    e^(-Delta^2 n), Delta = 10^(-dB/20).  Raises :class:`TruncationError` when
    the internal cutoff itself cannot hold the envelope.
    """
    delta = 10.0 ** (-spec.squeezing_db / 20.0)
    n_ext = max(4 * n_emitters, 200)
    ideal = _lattice_amplitudes(n_ext, *_GKP_LATTICES[spec.kind, spec.gkp_codeword])
    amp = ideal * np.exp(-delta ** 2) ** np.arange(n_ext + 1)
    weights = np.abs(amp) ** 2
    total = weights.sum()
    if weights[-(n_ext // 10):].sum() / total > ERROR_TAIL * 1e-3:
        raise TruncationError(
            f"internal cutoff {n_ext} cannot certify the truncation tail for "
            f"{spec.squeezing_db} dB; squeezing too strong for this construction"
        )
    cum = np.cumsum(weights) / total
    return amp, 1.0 - cum[n_emitters], int(np.searchsorted(cum, 1.0 - ERROR_TAIL))


# name and (weight w_k, leg g_k) of the coherent-leg kinds, sum_k w_k |g_k>;
# the 4-cat's legs sit at gamma, i gamma, -gamma, -i gamma
_COHERENT_LEGS = {
    TargetKind.COHERENT: ("coherent state", lambda g, phi: [(1, g)]),
    TargetKind.CAT2: ("2-cat", lambda g, phi: [(1, g), (-1j, -g)]),
    TargetKind.CAT4: ("4-cat", lambda g, phi: [(np.exp(1j * k * phi), 1j ** k * g)
                                               for k in range(4)]),
}


def make_target(spec: TargetSpec, space: DickeSpace) -> QuantumState:
    """Build the state a :class:`TargetSpec` describes, truncated at |N> and
    renormalized.  A tail beyond |N> above ``WARN_TAIL`` warns; above
    ``ERROR_TAIL`` it raises :class:`TruncationError` unless
    ``spec.allow_truncation`` downgrades that to the warning (deliberate hard
    truncation).  A coherent or cat target's tail is its leg's Poisson tail."""
    spec.check()
    if spec.kind is TargetKind.CUSTOM:
        return QuantumState.from_amplitudes(space, np.asarray(spec.custom_amplitudes),
                                            normalize=True)
    n = space.n_emitters
    if spec.kind in _COHERENT_LEGS:  # policed before the legs are summed
        name, legs = _COHERENT_LEGS[spec.kind]
        amp, tail, least = None, coherent_tail_weight(n, spec.gamma), None
        what = f"{name} gamma={spec.gamma}"
    else:
        amp, tail, least = _grid_amplitudes(n, spec)
        what = f"{spec.kind.value.removeprefix('gkp-')} GKP at {spec.squeezing_db} dB"
    if tail > ERROR_TAIL and not spec.allow_truncation:
        hint = f"; need N >= {least}" if least is not None else ""
        raise TruncationError(f"{what} leaves weight {tail:.3e} beyond |{n}> "
                              f"(limit {ERROR_TAIL:g}){hint}")
    if tail > WARN_TAIL:
        warnings.warn(f"{what} leaves weight {tail:.3e} beyond |{n}>; "
                      f"N = {n} may be too small", TruncationWarning, stacklevel=2)
    if amp is None:
        amp = np.zeros(space.dim, dtype=complex)
        for weight, leg in legs(complex(spec.gamma), spec.phi):
            amp += weight * coherent_amplitudes(n, leg)
    amp = amp[:space.dim]
    if not amp.any():  # every kept amplitude underflowed
        raise TruncationError(f"{what} leaves no amplitude at or below |{n}> "
                              "that float64 can represent")
    return QuantumState.from_amplitudes(space, amp, normalize=True)
