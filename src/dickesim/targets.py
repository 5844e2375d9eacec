"""Target states in the Dicke basis: coherent, cat, and GKP states.

Bosonic constructions are mapped onto the symmetric basis by identifying the
Fock amplitude of |n> with the Dicke amplitude of |n>, truncating at n = N and
renormalizing.  Truncation is policed: a pre-normalization tail weight above
``WARN_TAIL`` emits a :class:`TruncationWarning`, above ``ERROR_TAIL`` it
raises (the space is too small for the requested state).
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


class GkpLattice(enum.Enum):
    SQUARE = "square"
    HEX = "hexagonal"


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
def _log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max; read-only, since every caller shares it."""
    table = np.array([math.lgamma(n + 1) for n in range(n_max + 1)])
    table.flags.writeable = False
    return table


def coherent_amplitudes(n_max: int, gamma) -> np.ndarray:
    """Exact coherent amplitudes e^(-|g|^2/2) g^n / sqrt(n!) for n = 0..n_max,
    along a last axis appended to the shape of ``gamma`` (scalar or array)."""
    n = np.arange(n_max + 1)
    gamma = np.asarray(gamma, dtype=complex)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at gamma = 0
        logmag = (n * np.log(np.abs(gamma)) - 0.5 * _log_factorials(n_max)
                  - 0.5 * np.abs(gamma) ** 2)
    logmag[..., 0] = -0.5 * np.abs(gamma[..., 0]) ** 2  # g^0 = 1, also at g = 0
    return np.exp(logmag) * np.exp(1j * n * np.angle(gamma))


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


def _police_tail(tail: float, n_emitters: int, what: str,
                 min_n: Optional[int] = None, allow: bool = False) -> None:
    if tail > ERROR_TAIL and not allow:
        hint = f"; need N >= {min_n}" if min_n is not None else ""
        raise TruncationError(
            f"{what} leaves weight {tail:.3e} beyond |{n_emitters}> "
            f"(limit {ERROR_TAIL:g}){hint}"
        )
    if tail > WARN_TAIL:
        warnings.warn(
            f"{what} leaves weight {tail:.3e} beyond |{n_emitters}>; "
            f"N = {n_emitters} may be too small",
            TruncationWarning,
            stacklevel=3,
        )


def coherent_state(space: DickeSpace, gamma: complex) -> QuantumState:
    """|gamma> truncated to the Dicke ladder and renormalized."""
    tail = coherent_tail_weight(space.n_emitters, gamma)
    _police_tail(tail, space.n_emitters, f"coherent state gamma={gamma}")
    amp = coherent_amplitudes(space.n_emitters, gamma)
    return QuantumState.from_amplitudes(space, amp, normalize=True)


def cat2_state(space: DickeSpace, gamma: complex) -> QuantumState:
    """Two-legged cat: normalize(|gamma> - i |-gamma>)."""
    tail = coherent_tail_weight(space.n_emitters, gamma)
    _police_tail(tail, space.n_emitters, f"2-cat gamma={gamma}")
    amp = (coherent_amplitudes(space.n_emitters, gamma)
           - 1j * coherent_amplitudes(space.n_emitters, -complex(gamma)))
    return QuantumState.from_amplitudes(space, amp, normalize=True)


def cat4_state(space: DickeSpace, gamma: complex, phi: float) -> QuantumState:
    """Four-legged cat: normalize(sum_k e^(i k phi) |i^k gamma>).

    Legs sit at gamma, i*gamma, -gamma, -i*gamma.
    """
    tail = coherent_tail_weight(space.n_emitters, gamma)
    _police_tail(tail, space.n_emitters, f"4-cat gamma={gamma}")
    gamma = complex(gamma)
    amp = np.zeros(space.dim, dtype=complex)
    for k in range(4):
        amp += np.exp(1j * k * phi) * coherent_amplitudes(space.n_emitters, (1j ** k) * gamma)
    return QuantumState.from_amplitudes(space, amp, normalize=True)


def _oscillator_eigenfunctions(n_max: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for n = 0..n_max via the stable three-term recurrence."""
    psi = np.zeros((n_max + 1, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, n_max + 1):
        psi[n] = np.sqrt(2.0 / n) * x * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def _square_comb_amplitudes(n_max: int, spacing: float, offset: float) -> np.ndarray:
    """Fock amplitudes of the ideal position comb sum_s |x = offset + s*spacing>."""
    x_cut = np.sqrt(2.0 * n_max) + 6.0
    s_max = int(np.ceil((x_cut + abs(offset)) / spacing)) + 1
    xs = offset + spacing * np.arange(-s_max, s_max + 1)
    xs = xs[np.abs(xs) <= x_cut]
    return _oscillator_eigenfunctions(n_max, xs).sum(axis=1).astype(complex)


def _hex_lattice_amplitudes(n_max: int, codeword: str) -> np.ndarray:
    """Fock amplitudes of an ideal hexagonal grid state via coherent sums.

    The state is sum over lattice displacements D(lambda) applied to vacuum,
    with the displacement-composition phases of the stabilizer group.
    """
    cell_area = 2 * np.pi if codeword == "sensor" else 4 * np.pi
    # lattice generators and codeword shift as displacements (x + ip)/sqrt(2)
    g1 = np.sqrt(cell_area / np.sqrt(3))
    g2 = g1 * (0.5 + 0.5j * np.sqrt(3))
    shift = g1 / 2 if codeword == "one" else 0.0
    amp_cut = np.sqrt(n_max) + 5.0
    t_max = int(np.ceil(amp_cut / g2.imag)) + 1
    out = np.zeros(n_max + 1, dtype=complex)
    for t in range(-t_max, t_max + 1):  # one lattice row at a time
        s_box = int(np.ceil(amp_cut / g1 + abs(t) / 2)) + 1
        s = np.arange(-s_box, s_box + 1)
        lam = s * g1 + t * g2
        keep = np.abs(lam + shift) <= amp_cut
        s, lam = s[keep], lam[keep]
        # D(s g1) D(t g2) = e^{i s t Im(g1 conj(g2))} D(s g1 + t g2); composing
        # with the codeword shift adds e^{i Im(lam conj(shift))}.
        phase = s * t * np.imag(g1 * np.conj(g2)) + np.imag(lam * np.conj(shift))
        out += np.exp(1j * phase) @ coherent_amplitudes(n_max, lam + shift)
    return out


def gkp_state(space: DickeSpace, lattice: GkpLattice, squeezing_db: float,
              codeword: str = "sensor", allow_truncation: bool = False) -> QuantumState:
    """Finite-energy GKP state, envelope e^(-Delta^2 n) with Delta = 10^(-dB/20).

    The ideal grid state (sensor cell by default, logical codewords of the
    4*pi cell on request) is built in the Fock basis, damped by the envelope,
    truncated at n = N and renormalized.  Raises :class:`TruncationError`
    naming the minimum usable N when the envelope is too broad, unless
    ``allow_truncation`` downgrades that to a warning (deliberate hard
    truncation, e.g. to mirror a target built directly at dimension N+1).
    """
    if not isinstance(lattice, GkpLattice):
        lattice = GkpLattice(lattice)
    if codeword not in GKP_CODEWORDS:
        raise ValueError(f"gkp codeword must be one of {GKP_CODEWORDS}")
    if squeezing_db <= 0:
        raise ValueError("squeezing_db must be positive")
    delta = 10.0 ** (-squeezing_db / 20.0)
    n_ext = max(4 * space.n_emitters, 200)
    if lattice is GkpLattice.SQUARE:
        if codeword == "sensor":
            ideal = _square_comb_amplitudes(n_ext, np.sqrt(2 * np.pi), 0.0)
        elif codeword == "zero":
            ideal = _square_comb_amplitudes(n_ext, 2 * np.sqrt(np.pi), 0.0)
        else:
            ideal = _square_comb_amplitudes(n_ext, 2 * np.sqrt(np.pi), np.sqrt(np.pi))
    else:
        ideal = _hex_lattice_amplitudes(n_ext, codeword)
    amp = ideal * np.exp(-delta ** 2) ** np.arange(n_ext + 1)
    weights = np.abs(amp) ** 2
    total = weights.sum()
    if weights[-(n_ext // 10):].sum() / total > ERROR_TAIL * 1e-3:
        raise TruncationError(
            f"internal cutoff {n_ext} cannot certify the truncation tail for "
            f"{squeezing_db} dB; squeezing too strong for this construction"
        )
    cum = np.cumsum(weights) / total
    tail = 1.0 - cum[space.n_emitters]
    min_n = int(np.searchsorted(cum, 1.0 - ERROR_TAIL))
    _police_tail(tail, space.n_emitters, f"{lattice.value} GKP at {squeezing_db} dB",
                 min_n=min_n, allow=allow_truncation)
    return QuantumState.from_amplitudes(space, amp[:space.dim], normalize=True)


def make_target(spec: TargetSpec, space: DickeSpace) -> QuantumState:
    """Build the state a :class:`TargetSpec` describes."""
    spec.check()
    if spec.kind is TargetKind.COHERENT:
        return coherent_state(space, spec.gamma)
    if spec.kind is TargetKind.CAT2:
        return cat2_state(space, spec.gamma)
    if spec.kind is TargetKind.CAT4:
        return cat4_state(space, spec.gamma, spec.phi)
    if spec.kind is TargetKind.GKP_SQUARE:
        return gkp_state(space, GkpLattice.SQUARE, spec.squeezing_db,
                         spec.gkp_codeword, spec.allow_truncation)
    if spec.kind is TargetKind.GKP_HEX:
        return gkp_state(space, GkpLattice.HEX, spec.squeezing_db,
                         spec.gkp_codeword, spec.allow_truncation)
    return QuantumState.from_amplitudes(space, np.asarray(spec.custom_amplitudes),
                                        normalize=True)
