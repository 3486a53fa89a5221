"""Cross-SKU patching: transform a recording made on one GPU model so it
replays on another model of the same family.

Three fix classes, applied to decoded structures (never raw bytes):
page-table permission bits re-arranged into the target layout, two
register fixes per recording (the expected GPU_ID value and the MMU
config write), and one register per job (the core affinity write plus
its read-back expectation) when it names every core of the source
model; a job pinned to chosen cores keeps its mask. Replaying on a
smaller device is refused: shader relocation and memory compaction
would need GPU internals this tool treats as opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import MapGpuMem, Recording, RegRead, RegWrite
from .device import SKUS_BY_ID, SkuProfile, perm_table


class PatchError(Exception):
    pass


@dataclass(frozen=True)
class PatchResult:
    recording: Recording
    recording_edits: int   # GPU_ID expectation + MMU_CONFIG write
    job_edits: int         # one per full-mask affinity write
    pte_reencodes: int     # MapGpuMem entries re-encoded

    @property
    def register_edits(self) -> int:
        return self.recording_edits + self.job_edits


def patch_recording(rec: Recording, from_sku: SkuProfile,
                    to_sku: SkuProfile) -> PatchResult:
    if from_sku.sku_id not in SKUS_BY_ID or to_sku.sku_id not in SKUS_BY_ID:
        raise PatchError("unknown SKU pair")
    if rec.header.sku_id != from_sku.sku_id:
        raise PatchError(
            f"recording is for SKU {rec.header.sku_id:#x}, not "
            f"{from_sku.sku_id:#x}")
    if to_sku.core_count < from_sku.core_count:
        # Shrinking the device is only safe when every affinity is the
        # standard full-core mask the patcher itself rewrites; recordings
        # that pin specific cores cannot be re-targeted downward.
        for a in rec.actions:
            if (isinstance(a, RegWrite) and a.reg_name == "JOB_AFFINITY"
                    and a.value != from_sku.full_core_mask
                    and (a.value & to_sku.full_core_mask) != a.value):
                raise PatchError(
                    f"cannot replay on fewer cores ({to_sku.core_count} < "
                    f"{from_sku.core_count}): job pins cores {a.value:#x}")

    rec_edits = 0
    job_edits = 0
    pte = 0
    perms = perm_table(from_sku, to_sku)
    actions = []
    for a in rec.actions:
        if isinstance(a, MapGpuMem):
            a = replace(a, perm_flags_encoded=perms[a.perm_flags_encoded & 0xF])
            pte += 1
        elif isinstance(a, RegRead) and not a.nondet:
            if a.reg_name == "GPU_ID":
                a = replace(a, expect_value=to_sku.gpu_id_value)
                rec_edits += 1
            elif (a.reg_name == "JOB_AFFINITY"
                  and a.expect_value == from_sku.full_core_mask):
                # read-back of the per-job affinity write; counted with it
                a = replace(a, expect_value=to_sku.full_core_mask)
        elif isinstance(a, RegWrite):
            if a.reg_name == "MMU_CONFIG":
                a = replace(a, value=to_sku.expected_mmu_config)
                rec_edits += 1
            elif (a.reg_name == "JOB_AFFINITY"
                  and a.value == from_sku.full_core_mask):
                a = replace(a, value=to_sku.full_core_mask)
                job_edits += 1
        actions.append(a)

    header = replace(rec.header, sku_id=to_sku.sku_id)
    patched = Recording(header, tuple(actions), rec.dumps, rec.io_table)
    return PatchResult(patched, rec_edits, job_edits, pte)
