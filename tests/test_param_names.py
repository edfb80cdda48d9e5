"""Checkpoint array names and init values, pinned against a recorded fixture.

Checkpoints carry weights between pre-training and fine-tuning by parameter
name, so the ordered ``params()`` keys and the seeded initial values of every
model kind must stay exactly as they were recorded.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vidtext.downstream import finetune_model_for

FIXTURE = Path(__file__).parent / "fixtures" / "param_names.json"
KINDS = ("retrieval", "qa", "nli", "caption")
SEED = 5


def fingerprint(model) -> dict:
    """Ordered parameter names plus a sha256 over each name, shape and
    little-endian float64 value bytes."""
    h = hashlib.sha256()
    names = []
    for name, p in model.params().items():
        names.append(name)
        h.update(name.encode())
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return {"names": names, "sha256": h.hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_names_in_recorded_order(kind, tiny_config, recorded):
    got = fingerprint(finetune_model_for(kind, tiny_config, SEED))
    assert got["names"] == recorded[kind]["names"]


@pytest.mark.parametrize("kind", KINDS)
def test_init_values_unchanged(kind, tiny_config, recorded):
    got = fingerprint(finetune_model_for(kind, tiny_config, SEED))
    assert got["sha256"] == recorded[kind]["sha256"]
