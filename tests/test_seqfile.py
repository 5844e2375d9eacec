import json

import numpy as np
import pytest

from dickesim import DickeSpace, GateConventions, PulseSequence, PulseStep
from dickesim.cli import BUNDLED_SEQUENCES, _resolve_sequence_path
from dickesim.seqfile import (
    ResultRecord,
    SequenceFileError,
    load_sequence_file,
    save_sequence_file,
    sequence_from_dict,
    sequence_to_dict,
)


def sample_sequence():
    space = DickeSpace(6)
    steps = (
        PulseStep((0.0, 0.0, 1.0), 1.25, 0.5, -0.25),
        PulseStep((0.6, 0.8, 0.0), -0.75, 0.0, 1.125),
    )
    return PulseSequence(space, steps, (1.0, 0.0, 0.0), 0.5)


def test_roundtrip_bytes_identical(tmp_path):
    path = tmp_path / "seq.json"
    conv = GateConventions(exponent_sign=-1, squeeze_composition="combined")
    save_sequence_file(str(path), sample_sequence(), conv, {"name": "t"})
    first = path.read_bytes()
    seq, conv2, meta = load_sequence_file(str(path))
    save_sequence_file(str(path), seq, conv2, meta)
    assert path.read_bytes() == first
    assert conv2 == conv
    assert meta == {"name": "t"}
    # the bundled files: load -> save -> load -> save gives the same bytes
    for name in BUNDLED_SEQUENCES:
        saves = []
        src = _resolve_sequence_path(name)
        for _ in range(2):
            save_sequence_file(str(path), *load_sequence_file(src))
            saves.append(path.read_bytes())
            src = str(path)
        assert saves[0] == saves[1], name


def test_loaded_sequence_replays_identically(tmp_path):
    from dickesim import QuantumState, apply_sequence

    path = tmp_path / "seq.json"
    seq = sample_sequence()
    conv = GateConventions()
    save_sequence_file(str(path), seq, conv, None)
    seq2, conv2, _ = load_sequence_file(str(path))
    out1 = apply_sequence(seq, QuantumState.ground(seq.space), conv)
    out2 = apply_sequence(seq2, QuantumState.ground(seq2.space), conv2)
    assert np.array_equal(out1.amplitudes, out2.amplitudes)


def test_n_override(tmp_path):
    path = tmp_path / "seq.json"
    save_sequence_file(str(path), sample_sequence(), GateConventions(), None)
    seq, _, _ = load_sequence_file(str(path), n_override=10)
    assert seq.space.n_emitters == 10
    assert seq.n_steps == 2


def test_schema_errors_are_precise(tmp_path):
    doc = sequence_to_dict(sample_sequence(), GateConventions(), None)
    doc["steps"][1]["axis"] = [1.0, 0.0]
    with pytest.raises(SequenceFileError, match=r"steps\[1\]\.axis"):
        sequence_from_dict(doc)

    doc = sequence_to_dict(sample_sequence(), GateConventions(), None)
    del doc["steps"][0]["theta"]
    with pytest.raises(SequenceFileError, match=r"steps\[0\].*theta"):
        sequence_from_dict(doc)

    doc = sequence_to_dict(sample_sequence(), GateConventions(), None)
    doc["format_version"] = 99
    with pytest.raises(SequenceFileError, match="format_version"):
        sequence_from_dict(doc)

    doc = sequence_to_dict(sample_sequence(), GateConventions(), None)
    doc["squeeze_order"] = "zz"
    with pytest.raises(SequenceFileError, match="squeeze_order"):
        sequence_from_dict(doc)


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format_version": 1,\n  oops\n}\n')
    with pytest.raises(SequenceFileError, match=r":3:"):
        load_sequence_file(str(path))


def test_result_record_round_trip_and_digest(tmp_path):
    rec = ResultRecord("replay", {"a": 1, "b": [1.5, 2.5]}, {"fidelity": 0.5}, seed=7)
    path = tmp_path / "rec.json"
    rec.save(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["command"] == "replay"
    assert loaded["seed"] == 7
    assert loaded["outputs"]["fidelity"] == 0.5
    rec2 = ResultRecord("replay", {"b": [1.5, 2.5], "a": 1}, {"fidelity": 0.5}, seed=7)
    assert rec.to_json() == rec2.to_json()  # key order does not leak into bytes


def test_result_record_excludes_timing():
    rec = ResultRecord("closure", {}, {"universal": True})
    assert "wall" not in rec.to_json()


def test_atomic_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "seq.json"
    save_sequence_file(str(path), sample_sequence(), GateConventions(), None)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "seq.json"]
    assert leftovers == []
