"""On-disk formats: pulse-sequence files and command result records.

Sequence files are JSON with a fixed key order and an explicit
format_version, so save -> load -> save is byte-identical.  Result records
hold everything reproducible (inputs digest, seed, conventions, outputs);
wall-clock timing is deliberately kept out of the record bytes and reported
on stdout instead, so records with equal seeds compare equal.  Both are
written by :func:`_json_text`, the bytes of ``json.dumps(indent=2)``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Optional, Tuple

from .core import DickeSpace
from .gates import GateConventions, PulseSequence, PulseStep

FORMAT_VERSION = 1
RECORD_VERSION = 1


class SequenceFileError(ValueError):
    """Schema violation in a sequence file; message pinpoints the element."""


class NonFiniteRecordError(ValueError):
    """A result record holds NaN or infinity, which strict JSON cannot carry."""


def _require(cond: bool, where: str, what: str):
    if not cond:
        raise SequenceFileError(f"{where}: {what}")


def sequence_to_dict(seq: PulseSequence, conventions: GateConventions,
                     metadata: Optional[dict] = None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n_emitters": seq.space.n_emitters,
        **conventions.to_dict(),
        "steps": [
            {
                "axis": list(st.axis),
                "theta": st.theta,
                "alpha": st.alpha,
                "beta": st.beta,
            }
            for st in seq.steps
        ],
        "final_rotation": {"axis": list(seq.final_axis), "theta": seq.final_theta},
        "metadata": dict(metadata or {}),
    }


def sequence_from_dict(doc: dict, n_override: Optional[int] = None,
                       ) -> Tuple[PulseSequence, GateConventions, dict]:
    _require(isinstance(doc, dict), "document", "expected a JSON object")
    _require(doc.get("format_version") == FORMAT_VERSION, "format_version",
             f"expected {FORMAT_VERSION}, got {doc.get('format_version')!r}")
    n = n_override if n_override is not None else doc.get("n_emitters")
    _require(isinstance(n, int) and n >= 1, "n_emitters",
             f"expected positive integer, got {n!r}")
    try:
        conv = GateConventions.from_dict(doc)
    except ValueError as exc:
        raise SequenceFileError(str(exc)) from exc
    space = DickeSpace(n)
    steps = []
    raw_steps = doc.get("steps")
    _require(isinstance(raw_steps, list), "steps", "expected an array")
    for idx, raw in enumerate(raw_steps):
        where = f"steps[{idx}]"
        _require(isinstance(raw, dict), where, "expected an object")
        for key in ("axis", "theta", "alpha", "beta"):
            _require(key in raw, where, f"missing key {key!r}")
        axis = raw["axis"]
        _require(isinstance(axis, list) and len(axis) == 3, f"{where}.axis",
                 "expected a 3-element array")
        try:
            steps.append(PulseStep(tuple(float(a) for a in axis),
                                   float(raw["theta"]), float(raw["alpha"]),
                                   float(raw["beta"])))
        except (TypeError, ValueError) as exc:
            raise SequenceFileError(f"{where}: {exc}") from exc
    fin = doc.get("final_rotation")
    _require(isinstance(fin, dict) and "axis" in fin and "theta" in fin,
             "final_rotation", "expected an object with axis and theta")
    try:
        seq = PulseSequence(space, tuple(steps),
                            tuple(float(a) for a in fin["axis"]), float(fin["theta"]))
    except (TypeError, ValueError) as exc:
        raise SequenceFileError(f"final_rotation: {exc}") from exc
    return seq, conv, dict(doc.get("metadata") or {})


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _flat_encoder(depth: int, sort_keys: bool, allow_nan: bool):
    """json's C encoder for one container of scalars whose members sit at
    nesting ``depth``: it puts a comma, a line break and the members' indent
    between them."""
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * depth, sort_keys, False, allow_nan)


def _indented(obj, sort_keys: bool, allow_nan: bool, depth: int) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it at nesting ``depth``.  A
    container whose members are all of the exact types in ``_SCALARS`` is one
    call of the C encoder, which lacks only the line breaks inside its two
    brackets; Python walks the levels above such containers, and hands any
    other member (a float subclass, a non-JSON value) back to the C encoder
    alone, so that it is written, or refused, as json would."""
    encode = _flat_encoder(depth + 1, sort_keys, allow_nan)
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return "".join(encode(obj, 0))  # a scalar, or default()'s TypeError
    brackets = "{}" if is_dict else "[]"
    if not obj:
        return brackets
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        parts = ["".join(encode(obj, 0))[1:-1]]
    elif is_dict:
        items = sorted(obj.items()) if sort_keys else obj.items()
        parts = [encode_basestring_ascii(_key(key, encode)) + ": "
                 + _indented(value, sort_keys, allow_nan, depth + 1) for key, value in items]
    else:
        parts = [_indented(value, sort_keys, allow_nan, depth + 1) for value in obj]
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(parts) + f"{pad}{brackets[1]}"


def _key(key, encode) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return "".join(encode(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(doc, sort_keys: bool = False, allow_nan: bool = True) -> str:
    """``json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=allow_nan)``
    plus a newline, byte for byte, with the same errors."""
    if c_make_encoder is None:  # an interpreter without json's C accelerator
        return json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=allow_nan) + "\n"
    return _indented(doc, sort_keys, allow_nan, 0) + "\n"


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    umask = os.umask(0)  # read by setting it; restored at once
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 -> what open() gives a new file
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_sequence_file(path: str, seq: PulseSequence, conventions: GateConventions,
                       metadata: Optional[dict] = None) -> None:
    doc = sequence_to_dict(seq, conventions, metadata)
    _atomic_write_text(path, _json_text(doc))


def load_sequence_file(path: str, n_override: Optional[int] = None,
                       ) -> Tuple[PulseSequence, GateConventions, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SequenceFileError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return sequence_from_dict(doc, n_override)


def inputs_digest(payload: dict) -> str:
    """Stable digest of a command's inputs."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class ResultRecord:
    """Reproducible command outcome; serialization is canonical."""

    command: str
    inputs: dict
    outputs: dict
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "record_version": RECORD_VERSION,
            "command": self.command,
            "inputs_digest": inputs_digest(self.inputs),
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    def to_json(self) -> str:
        try:
            return _json_text(self.to_dict(), sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteRecordError(f"the {self.command} record holds NaN or infinity, "
                                       "which JSON cannot carry") from exc

    def save(self, path: str) -> None:
        _atomic_write_text(path, self.to_json())
