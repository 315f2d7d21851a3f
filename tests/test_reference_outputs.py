"""Every command of reference_outputs.RUNS reproduces its recorded outputs:
byte for byte on the environment the fixture was recorded on, and within
reference_outputs.TOLERANCE, with identical accuracies and predictions,
anywhere else. Re-recording is described in reference_outputs.py."""

import copy
import json

import pytest

import reference_outputs as ref


@pytest.fixture(scope="module")
def recorded():
    return json.loads(ref.FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    return ref.run_all(str(tmp_path_factory.mktemp("reference")))


def test_outputs_match_the_recording(recorded, rerun):
    assert set(rerun) == set(ref.RUNS) == set(recorded["runs"])
    assert ref.value_mismatches(recorded["runs"], rerun) == []
    if recorded["fingerprint"] == ref.fingerprint():
        assert ref.hash_mismatches(recorded["runs"], rerun) == []


def test_value_comparison_applies_its_tolerance(recorded):
    runs = recorded["runs"]
    nudged = copy.deepcopy(runs)
    values = nudged["train-orthoreg"]["files"]["metrics.jsonl"]["values"]
    values["sup_loss"][0] *= 1 + ref.TOLERANCE / 10
    assert ref.value_mismatches(runs, nudged) == []
    values["sup_loss"][0] *= 1 + 10 * ref.TOLERANCE
    assert ref.value_mismatches(runs, nudged) != []

    for column in ("val_acc", "predictions"):
        moved = copy.deepcopy(runs)
        entry = moved["train-orthoreg"]["files"]
        target = (entry["checkpoint.npz"] if column == "predictions"
                  else entry["metrics.jsonl"]["values"])[column]
        target[0] += 1e-12 if column == "val_acc" else 1
        assert ref.value_mismatches(runs, moved) != [], column
