"""Golden gate: the five built-in workloads, recorded at the conftest
defaults, must keep their exact .gpr bytes, `gprr inspect` text, comparison
projections, replay outputs and virtual time. A refactor that moves any of
these values changed behaviour."""

import hashlib

import pytest

from gprr.actions import Granularity, canonical_actions
from gprr.cli import dispatch
from gprr.recfmt import encode, write_file
from gprr.replayer import expected_event_log

from gprr.recorder import RecordHarness

from conftest import random_input, record_chain64, record_graph, replay_once

INPUT_SEED = 2024


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()


# name -> (encode, inspect text, canonical_actions, expected_event_log,
#          replay outputs, replay vclock_ns); digests are SHA-256 hex
GOLDEN = {
    "vec_add": (
        "a37cbccf7b5c4ab2b0ed88f19dcd67e99fe4478d27c9ab2fd5b07ea67ed6a747",
        "e4f8287071ea91fd08784b5a6e794e32988de153ed2c1186574c4201dc4d5947",
        "9ffcd2163cfa3261d1304f4b47331359eb88faab7804928f4e2b51f8d40f47d3",
        "4a96ceaae703303e339f107603be105375736553dbd6d6449f9eef4aa2acb454",
        "d5608114583ed923f5ab8df167ebf7106db10b69ab23dabb53ecbcfe1489e8f0",
        6488,
    ),
    "scale": (
        "9ae7c13cb67e8a629396d6a806ea90cf8c4f8f9a571569ecf58edb74490a449b",
        "bf6e0293d650b8ae418063917b73668dc599ea6b5bc4db02269a44dd161c88c7",
        "a0c954947a50e66bb2b32cc52a10406cf21ded10b7a370631547dc67de1d5279",
        "4a96ceaae703303e339f107603be105375736553dbd6d6449f9eef4aa2acb454",
        "df209be18d9626c2bfc5a6329f177a38c20c21a434e6dd2944b84f6da9f8695a",
        5410,
    ),
    "relu": (
        "220b5cac950f3c22780050cdc06c69d0fffe57d6a277a85a7c153153f366e6e7",
        "4d300368f1c3744c79759dda7de132ef400499cb1d342be1103a14ba0d891593",
        "a0c954947a50e66bb2b32cc52a10406cf21ded10b7a370631547dc67de1d5279",
        "4a96ceaae703303e339f107603be105375736553dbd6d6449f9eef4aa2acb454",
        "4b2eec18b48200c8d54b1c157960d27c9234308d1c8a5e7d21513e491067b8ed",
        5410,
    ),
    "matmul8": (
        "c3e259c6bd9509355187128416e737efa77240ff98934864169dcd5f425a84aa",
        "d8b4ed95780f6b8a2817da12dca59a186c2b631a6db504e4e99aecb24a7f2c33",
        "18f28289d6119615e3c3f4b53ebd73bb55438fba2cb2d318d9c3c60fffac7a96",
        "c668d4ecdf7de554beac711b7cf44e40d2a42fb20dad62114b9991a87f9b854c",
        "4a0ba0d0065e6ebb9ef40e9220d0c45b6049edddb55254ad6015ac44960b1cb1",
        11044,
    ),
    "mixed3": (
        "4898050f938722cf5fba1df8be14b09ce129962c3a224fcda97dd30bdaab4b42",
        "59cf4daf41561ecdde8ed083603f32f727a5edf6e0cb6d31baa5ef388896974a",
        "212aca597a069c4b9678397e5950a4634fa4a5100ded103e72f0790b06a7f82e",
        "a570d2cb0f488d73201a781cad42249ea51f964ac0daa390b4d267dcbddfde74",
        "fa5e45b0f862b8ec1b4721b3c31af4fe4676347ce876409690437a73c88bd0d6",
        7517,
    ),
}


def fingerprint(graph, rec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_file("rec.gpr", rec)
    capsys.readouterr()
    assert dispatch(["inspect", "rec.gpr"]) == 0
    inspect_text = capsys.readouterr().out
    inputs = random_input(graph, INPUT_SEED)
    result = replay_once(rec, inputs)
    assert result.ok
    assert result.outputs == [graph.evaluate(inputs)]
    return (_sha(encode(rec)), _sha(inspect_text.encode()),
            _sha(canonical_actions(rec)), _sha(expected_event_log(rec)),
            _sha(b"".join(result.outputs)), result.vclock_ns)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_workloads_match_golden(name, graphs, recorded, tmp_path,
                                        monkeypatch, capsys):
    got = fingerprint(graphs[name], recorded[name], tmp_path, monkeypatch, capsys)
    assert got == GOLDEN[name]


# mixed3 recorded per layer at the conftest defaults: each slice's .gpr
# bytes. A slice starts mid-run, so its first kick must still dump every
# region its prologue left out.
PER_LAYER_GOLDEN = (
    "886ebd3c3625b9ac058d13fa8321d3c08f30603032e09824143c2adb97fe693a",
    "323fdeebf0a4b6b106ad792d42efc43ed2000baf5d97faaed6b3fe44c77f6623",
    "6227948d43884865e7201967dd50918d5496f9a584478e86ae1f96cf52c2f91f",
)


def test_per_layer_recordings_match_golden(graphs):
    harness = RecordHarness(granularity=Granularity.PER_LAYER)
    res = record_graph(graphs["mixed3"], harness=harness)
    assert tuple(_sha(encode(r)) for r in res.recordings) == PER_LAYER_GOLDEN


# The benchmark's chain-64 at seed 1: 64 jobs whose 129 dumps repeat 67
# distinct snapshots, where the builder's one deflate per snapshot acts.
CHAIN64_GOLDEN = "4430db127e5b61b5ed8c036bd00838dd6746699ed3dab4ede9def8708e2dd56e"


def test_chain64_recording_matches_golden():
    assert _sha(encode(record_chain64().recordings[0])) == CHAIN64_GOLDEN
