"""The seeded generator: its streams are pinned byte for byte."""

import hashlib

import pytest

from infobs import serialize_model

from conftest import N2_SEED, SOUND_SEED, TINY_SEED
from randgen import instance_stream

# (seed, count, generator options) -> SHA-256 of the serialized instances.
# The property tests and the oracle cross-checks all draw from these
# streams, so a change to the generator must not move them.
PINNED = [
    (N2_SEED, 220, dict(n_choices=(2,), obs_membership=0.4, legal_state_bias=0.6),
     "2c3d607fb1ed4154b6f975fbfe85cf4ab8ccd56697f37c184b057e741e55feea"),
    (SOUND_SEED, 300, {},
     "bc57fda1afb7de87d6cce180b294c5398f500b65400c2f13f09da676167075cb"),
    (TINY_SEED, 300, dict(max_states=4, max_events=2, n_choices=(1, 2),
                          legal_state_bias=0.5, event_membership=0.8,
                          obs_membership=0.3, transition_density=0.7),
     "a4e98b67ac9e232576f3660ca003474287be4facc4ba8866838f360ae2d4ccab"),
    (61, 30, {},
     "38b5b9450dcfa743bc4e552d552320a8b64bd156d1e2c0087881dc81f06bc8db"),
    (67, 20, dict(legal_state_bias=1.1),
     "67bdef528bcf0930ca9f271c07a3e03b7e5d72d3e8fe51d2767e6d4f1e4428e6"),
]


@pytest.mark.parametrize("seed, count, options, digest", PINNED,
                         ids=[str(case[0]) for case in PINNED])
def test_pinned_streams_are_unchanged(seed, count, options, digest):
    h = hashlib.sha256()
    for model, profile in instance_stream(seed, count, **options):
        h.update(serialize_model(model, profile).encode())
    assert h.hexdigest() == digest

