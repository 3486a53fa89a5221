"""Cross-SKU patching: permission re-encoding, edit counts, round trips,
refusals, replay on the target model."""

import dataclasses

import pytest

from gprr.actions import MapGpuMem, RegRead, RegWrite
from gprr.device import Device, Perm, SKU_A, SKU_B, SkuProfile, perm_table
from gprr.patcher import PatchError, patch_recording
from gprr.recfmt import encode
from gprr.recorder import RecordHarness, record
from gprr.refstack import GpuStack, build_graph
from gprr.replayer import ReplayConfig, init
from gprr.verifier import verify

from conftest import i32s, random_input, record_graph, replay_once, unpack32


@pytest.fixture(scope="module")
def vecadd_rec():
    return record_graph(build_graph([("vec_add",)], 8)).recordings[0]


def test_perm_set_reencodes_across_layouts():
    # V+R+W is 0b0111 in the A layout and 0b1101 under B's V,X,R,W order
    perms = Perm.VALID | Perm.READ | Perm.WRITE
    assert SKU_A.encode_perms(perms) == 0b0111
    assert SKU_B.encode_perms(perms) == 0b1101
    assert SKU_B.decode_perms(0b1101) == perms


@pytest.mark.parametrize("to_sku", [SKU_A, SKU_B], ids=["to-A", "to-B"])
@pytest.mark.parametrize("from_sku", [SKU_A, SKU_B], ids=["from-A", "from-B"])
def test_perm_table_is_the_perm_round_trip(from_sku, to_sku):
    # the patcher's table, and the replayer's with VALID added, against Perm
    for add in (Perm(0), Perm.VALID):
        table = perm_table(from_sku, to_sku, add)
        for bits in range(16):
            assert table[bits] == to_sku.encode_perms(from_sku.decode_perms(bits) | add)


def test_patch_reencodes_map_permissions(vecadd_rec):
    patched = patch_recording(vecadd_rec, SKU_A, SKU_B).recording
    for before, after in zip(vecadd_rec.actions, patched.actions):
        if isinstance(before, MapGpuMem):
            assert (SKU_A.decode_perms(before.perm_flags_encoded)
                    == SKU_B.decode_perms(after.perm_flags_encoded))


def test_edit_counts_two_plus_one_per_job():
    # 4 unary layers + the staging copy job = a 5-job recording
    g = build_graph([("scale", 2), ("relu",), ("copy",), ("scale", -1)], 16)
    rec = record_graph(g).recordings[0]
    assert rec.job_count() == 5
    result = patch_recording(rec, SKU_A, SKU_B)
    assert result.recording_edits == 2
    assert result.job_edits == 5
    assert result.register_edits == 2 + 5


def test_pinned_affinity_survives_same_sku_patch():
    g = build_graph([("vec_add",)], 8)
    rec = record(GpuStack(Device(sku=SKU_B, env_seed=7)), g,
                 RecordHarness()).recordings[0]

    def pin(a):  # the affinity write and its read-back name cores 0 and 1
        if isinstance(a, RegWrite) and a.reg_name == "JOB_AFFINITY":
            return dataclasses.replace(a, value=0x3)
        if isinstance(a, RegRead) and a.reg_name == "JOB_AFFINITY":
            return dataclasses.replace(a, expect_value=0x3)
        return a

    pinned = dataclasses.replace(rec, actions=tuple(map(pin, rec.actions)))
    assert pinned.actions != rec.actions
    result = patch_recording(pinned, SKU_B, SKU_B)
    assert result.job_edits == 0
    assert result.recording.actions == pinned.actions
    inp = random_input(g, 3)
    out = replay_once(result.recording, inp, sku=SKU_B)
    assert out.ok and out.outputs[0] == g.evaluate(inp)


def test_patch_rewrites_the_three_register_surfaces(vecadd_rec):
    patched = patch_recording(vecadd_rec, SKU_A, SKU_B).recording
    reads = {a.reg_name: a.expect_value for a in patched.actions
             if isinstance(a, RegRead)}
    writes = {a.reg_name: a.value for a in patched.actions
              if isinstance(a, RegWrite)}
    assert reads["GPU_ID"] == SKU_B.gpu_id_value
    assert writes["MMU_CONFIG"] == SKU_B.expected_mmu_config
    assert writes["JOB_AFFINITY"] == SKU_B.full_core_mask
    assert reads["JOB_AFFINITY"] == SKU_B.full_core_mask
    assert patched.header.sku_id == SKU_B.sku_id


def test_patch_identity(vecadd_rec):
    assert encode(patch_recording(vecadd_rec, SKU_A, SKU_A).recording) == encode(vecadd_rec)


def test_patch_roundtrip_is_byte_identical(vecadd_rec):
    there = patch_recording(vecadd_rec, SKU_A, SKU_B).recording
    back = patch_recording(there, SKU_B, SKU_A).recording
    assert encode(back) == encode(vecadd_rec)


def test_patched_recording_verifies_and_replays(vecadd_rec):
    patched = patch_recording(vecadd_rec, SKU_A, SKU_B).recording
    assert verify(patched).ok
    inp = i32s([7, 6, 5, 4, 1, 2, 3, 4])
    r = replay_once(patched, inp, sku=SKU_B, env_seed=17)
    assert r.ok and unpack32(r.outputs[0]) == [8, 8, 8, 8]


def test_patch_checks_header_sku(vecadd_rec):
    with pytest.raises(PatchError):
        patch_recording(vecadd_rec, SKU_B, SKU_A)  # recording is from A


def test_unknown_sku_pair_refused(vecadd_rec):
    rogue = SkuProfile(sku_id=0x9999, core_count=2,
                       perm_bit_layout=SKU_A.perm_bit_layout,
                       expected_mmu_config=0, gpu_id_value=0x9999)
    with pytest.raises(PatchError):
        patch_recording(vecadd_rec, SKU_A, rogue)


def test_downpatch_refused_for_pinned_affinity(vecadd_rec):
    to_b = patch_recording(vecadd_rec, SKU_A, SKU_B).recording
    pinned = dataclasses.replace(
        to_b, actions=tuple(
            dataclasses.replace(a, value=0xF0)
            if isinstance(a, RegWrite) and a.reg_name == "JOB_AFFINITY" else a
            for a in to_b.actions))
    with pytest.raises(PatchError):
        patch_recording(pinned, SKU_B, SKU_A)
