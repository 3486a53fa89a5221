"""The benchmark's workloads and the pipeline it drives for each of them.

Every workload records on SKU-A with the stack delays ``gprr bench`` uses
by default, so that idle-skip has intervals to classify. Everything that
varies between runs is drawn from the seed: the recording device and
stack, the record-time magic input, the replay device, every replay's
input and, on the checkpoint workload, where each replay stalls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gprr import patcher, recfmt, recorder, replayer
from gprr.actions import RegWrite
from gprr.device import SKU_A, SKU_B, Device, SkuProfile
from gprr.patcher import PatchResult
from gprr.recorder import RecordHarness, RecordResult
from gprr.refstack import DelayPolicy, GpuStack, WorkloadGraph, build_graph
from gprr.replayer import ReplayConfig, ReplayResult, ReplaySession

DELAYS = DelayPolicy(50_000, 20_000, 5_000)
STALL_NS = 20_000_000  # the CLI's default `stall` fault


@dataclass(frozen=True)
class Workload:
    name: str
    graph: WorkloadGraph
    sku: SkuProfile  # replay device; recordings for another SKU are patched
    checkpoint_every_jobs: int
    stall: bool  # one seeded Device.stall per replay, at a seeded JOB_START
    # replay_vclock_ns is the median over exactly this many first replays,
    # so it does not depend on how many replays fit in a run; the closed
    # loop never runs fewer
    vclock_replays: int
    traced_replays: int  # replays under the tracer in a --trace 1 run


def _chain_64() -> WorkloadGraph:
    # 63 layers plus the staging copy make 64 jobs. Odd-factor scales keep
    # the output a bijection of the input, so I/O discovery stays unambiguous.
    specs = [("scale", 3) if i % 2 == 0 else ("copy",) for i in range(63)]
    return build_graph(specs, 16)


WORKLOADS = {w.name: w for w in (
    Workload("vecadd-16k", build_graph([("vec_add",)], 16384), SKU_A, 0, False,
             vclock_replays=41, traced_replays=9),
    Workload("chain-64", _chain_64(), SKU_A, 0, False,
             vclock_replays=101, traced_replays=11),
    Workload("chain-64-ckpt-b", _chain_64(), SKU_B, 1, True,
             vclock_replays=21, traced_replays=5),
)}


@dataclass
class SetUp:
    blob: bytes
    record_result: RecordResult
    patch_result: PatchResult | None
    stack_vclock_ns: int  # simulated time of every stack run while recording
    session: ReplaySession


def set_up(w: Workload, seed: int) -> SetUp:
    """Record, patch when the replay SKU differs, encode, then load."""
    dev = Device(sku=SKU_A, env_seed=seed)
    stack = GpuStack(dev, delays=DELAYS, rng_seed=seed)
    result = recorder.record(stack, w.graph, RecordHarness(magic_seed=seed * 131 + 7))
    rec = result.recordings[0]
    patched = None
    if w.sku is not SKU_A:
        patched = patcher.patch_recording(rec, SKU_A, w.sku)
        rec = patched.recording
    blob = recfmt.encode(rec)
    return SetUp(blob, result, patched, dev.vclock_ns, load(w, seed, blob))


def load(w: Workload, seed: int, blob: bytes) -> ReplaySession:
    """From .gpr bytes to a ready session; ``load`` verifies internally."""
    rec = recfmt.decode(blob)
    session = replayer.init(Device(sku=w.sku, env_seed=seed + 1),
                            ReplayConfig(checkpoint_every_jobs=w.checkpoint_every_jobs))
    session.load(rec)
    return session


def replay_input(w: Workload, seed: int, index: int) -> bytes:
    return random.Random(f"input:{seed}:{index}").randbytes(w.graph.input_elems * 4)


def arm_stall(session: ReplaySession, seed: int, index: int) -> None:
    """Stall one job kick of this replay. The kick is never the first, so
    a checkpoint exists and recovery restores from it."""
    jobs = session.loaded.job_count()
    target = random.Random(f"stall:{seed}:{index}").randrange(1, jobs)
    state = {"kicks": 0, "armed": True}

    def post(sess, idx, action):
        if (state["armed"] and isinstance(action, RegWrite)
                and action.reg_name == "JOB_START"):
            if state["kicks"] == target:
                sess.dev.stall(STALL_NS)
                state["armed"] = False
            state["kicks"] += 1
    session.post_action_hook = post


def output_ok(w: Workload, inputs: bytes, result: ReplayResult) -> bool:
    """Bit-exact against the host oracle."""
    return (result.ok and len(result.outputs) == 1
            and result.outputs[0] == w.graph.evaluate(inputs))
