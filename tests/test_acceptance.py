"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import random
import time

import pytest

import gprr.device as dv
from gprr import recfmt
from gprr.actions import (Granularity, LoadMemDump, MapGpuMem, MemDump,
                          RegRead, RegWrite, UnmapGpuMem, WaitIrq)
from gprr.device import Device, SKU_A, SKU_B
from gprr.recorder import RecordHarness, magic_bytes, record
from gprr.recfmt import BadChecksum, DecodeError, decode, encode
from gprr.refstack import DelayPolicy, GpuStack, build_graph
from gprr.replayer import (DivergenceKind, LoadError, ReplayConfig,
                           expected_event_log, init, replay_sequence)
from gprr.patcher import patch_recording
from gprr.verifier import verify

from conftest import i32s, random_input, record_graph, replay_once


def note(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS: {text}")


@pytest.fixture(scope="module")
def graphs():
    return {
        "vec_add": build_graph([("vec_add",)], 512),
        "scale": build_graph([("scale", 3)], 256),
        "relu": build_graph([("relu",)], 256),
        "matmul8": build_graph([("matmul", 8, 8, 8)], 128),
        "mixed3": build_graph([("vec_add",), ("scale", 3), ("relu",)], 64),
    }


@pytest.fixture(scope="module")
def recorded(graphs):
    return {name: record_graph(g).recordings[0] for name, g in graphs.items()}


def test_c1_replay_determinism(graphs, recorded):
    """100 replays under distinct env seeds: identical outputs and
    state-changing event sequences; only poll counts/nondet values vary."""
    t0 = time.monotonic()
    for name, g in graphs.items():
        rec = recorded[name]
        inp = random_input(g, 1234)
        expected = expected_event_log(rec)
        outputs, logs = set(), set()
        for seed in range(100):
            r = replay_once(rec, inp, env_seed=seed)
            assert r.ok, (name, seed, r.divergence)
            outputs.add(r.outputs[0])
            logs.add(tuple(r.event_log))
        assert len(outputs) == 1, name
        assert len(logs) == 1, name
        assert list(next(iter(logs))) == expected, name
    took = time.monotonic() - t0
    assert took < 30, f"determinism sweep took {took:.1f}s"
    note("C1", f"5 workloads x 100 seeds, identical outputs+events ({took:.1f}s)")


def test_c2_oracle_equivalence(graphs, recorded):
    """200 random inputs per workload replay to the host reference."""
    t0 = time.monotonic()
    for name, g in graphs.items():
        rec = recorded[name]
        dev = Device(env_seed=999)
        session = init(dev)
        session.load(rec)
        try:
            for trial in range(200):
                inp = random_input(g, trial * 7 + 13)
                r = session.replay(inp)
                assert r.ok, (name, trial)
                assert r.outputs[0] == g.evaluate(inp), (name, trial)
        finally:
            session.cleanup()
    took = time.monotonic() - t0
    assert took < 60, f"oracle sweep took {took:.1f}s"
    note("C2", f"5 workloads x 200 random inputs bit-exact ({took:.1f}s)")


def test_c3_io_discovery(graphs):
    """Discovered I/O addresses equal allocator ground truth; a low-entropy
    output with planted coincidences resolves within 3 trials."""
    for name, g in graphs.items():
        res = record_graph(g)
        stack = GpuStack(Device(env_seed=7))
        stack.run_workload(g, bytes(g.input_elems * 4))
        gt_in = stack.find_alloc("input").gpu_va
        gt_out = stack.find_alloc(
            "output" if len(g.layers) > 1 else "L0.out").gpu_va
        assert res.io_table[0].gpu_va == gt_in, name
        assert res.io_table[-1].gpu_va == gt_out, name

    g1 = build_graph([("scale", 3)], 1)  # 4-byte output
    seed = 9
    bait = g1.evaluate(magic_bytes(seed, 1, 4))

    def plant(stack):
        out = stack.find_alloc("L0.out")
        stack.mem_write_va(out.gpu_va + 64, bait)
        stack.mem_write_va(out.gpu_va + 256, bait)

    res = record_graph(g1, harness=RecordHarness(magic_seed=seed,
                                                 pre_scan_hook=plant))
    assert len(res.trials[0].output_candidates) >= 3
    assert len(res.trials) <= 3
    note("C3", f"ground truth matched on 5 workloads; "
               f"{len(res.trials[0].output_candidates)} coincidences resolved "
               f"in {len(res.trials)} trials")


def test_c4_idle_skip():
    """Injected stack delays: >=50% of intervals SKIP and a no-skip replay
    is >=1.1x longer."""
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 64)
    res = record_graph(g, delays=DelayPolicy(jit_ns=50_000, mgmt_ns=20_000))
    rec = res.recordings[0]
    total = res.skipped_intervals + res.kept_intervals
    assert res.skipped_intervals >= total / 2
    inp = random_input(g, 5)
    fast = replay_once(rec, inp, env_seed=3)
    slow = replay_once(rec, inp, env_seed=3, config=ReplayConfig(honor_skips=False))
    assert fast.ok and slow.ok
    ratio = slow.vclock_ns / fast.vclock_ns
    assert ratio >= 1.1
    note("C4", f"{res.skipped_intervals}/{total} intervals skipped; "
               f"no-skip replay x{ratio:.2f} longer")


def test_c5_fault_detection_and_recovery(recorded, graphs):
    """CORRUPT_PTE -> MMU_FAULT, OFFLINE_CORES -> VALUE_MISMATCH; one-shot
    faults recover, a persistent fault stops after exactly 4 attempts."""
    g, rec = graphs["vec_add"], recorded["vec_add"]
    inp = random_input(g, 42)
    in_va = rec.inputs()[0].gpu_va

    # one-shot PTE corruption
    s = init(Device(env_seed=3))
    s.load(rec)
    s.attempt_hook = (lambda dev, attempt:
                      dev.corrupt_pte(in_va) if attempt == 0 else None)
    r = s.replay(inp)
    assert r.ok and r.outputs[0] == g.evaluate(inp)
    assert s.divergence_log[0].kind is DivergenceKind.MMU_FAULT
    assert 1 <= r.recovery_attempts <= 4
    s.cleanup()

    # one-shot core offlining, injected after the replayed reset
    s = init(Device(env_seed=4))
    s.load(rec)
    state = {"armed": True}

    def post(sess, idx, action):
        if (isinstance(action, RegWrite) and action.reg_name == "GPU_CMD"
                and action.value == dv.CMD_SOFT_RESET and state["armed"]):
            state["armed"] = False
            sess.dev.offline_cores(sess.dev.sku.full_core_mask)

    s.post_action_hook = post
    r = s.replay(inp)
    assert r.ok and r.outputs[0] == g.evaluate(inp)
    assert s.divergence_log[0].kind is DivergenceKind.VALUE_MISMATCH
    s.cleanup()

    # persistent corruption: exactly 4 recovery attempts, report names action
    s = init(Device(env_seed=5))
    s.load(rec)
    s.attempt_hook = lambda dev, attempt: dev.corrupt_pte(in_va)
    r = s.replay(inp)
    assert not r.ok
    assert r.recovery_attempts == 4
    assert r.divergence.kind is DivergenceKind.MMU_FAULT
    assert r.divergence.origin == (
        f"{rec.header.workload_label}#action{r.divergence.action_index}")
    s.cleanup()
    note("C5", "MMU_FAULT + VALUE_MISMATCH detected; one-shot recovered; "
               "persistent stopped after exactly 4 attempts")


def test_c6_underclock_tolerance(recorded, graphs):
    """CLOCK_DIV=8 replay first times out, then delay injection saves it."""
    g, rec = graphs["vec_add"], recorded["vec_add"]
    inp = random_input(g, 77)
    dev = Device(env_seed=12)
    dev.clock_div = 8
    s = init(dev)
    s.load(rec)
    r = s.replay(inp)
    assert s.divergence_log, "no initial divergence at 8x underclock"
    assert s.divergence_log[0].kind is DivergenceKind.TIMEOUT
    assert r.ok and 1 <= r.recovery_attempts <= 4
    assert r.outputs[0] == g.evaluate(inp)
    s.cleanup()
    note("C6", f"initial TIMEOUT, recovered after {r.recovery_attempts} "
               "delay-injection attempt(s)")


def test_c7_verification(recorded, graphs):
    """Six hand-corrupted recordings fail with their rule ids; recorder
    output verifies clean; the interleaved map/unmap fixture peaks at
    20480 bytes."""
    base = recorded["vec_add"]

    def edited(actions=None, io=None):
        return dataclasses.replace(
            base,
            actions=tuple(actions) if actions is not None else base.actions,
            io_table=tuple(io) if io is not None else base.io_table)

    # 1. out-of-map register
    r1 = edited(actions=base.actions + (RegRead(0, 0, "DBG_BACKDOOR", 0),))
    assert [v.rule for v in verify(r1).violations] == ["R1"]
    # 2. write to read-only
    r2 = edited(actions=base.actions + (RegWrite(0, 0, "GPU_ID", 1),))
    assert [v.rule for v in verify(r2).violations] == ["R2"]
    # 3. unmap before map
    r3 = edited(actions=(UnmapGpuMem(0, 0, 0xDEAD000, 4096),) + base.actions)
    assert "R5" in [v.rule for v in verify(r3).violations]
    # 4. dump outside mapping
    r4 = edited(actions=(base.actions[0],
                         LoadMemDump(0, 0, base.dumps[0].dump_id, 0xCAFE000))
                + base.actions[1:])
    assert "R4" in [v.rule for v in verify(r4).violations]
    # 5. budget breach
    breach = verify(base, mem_budget_bytes=4096)
    assert "R3" in [v.rule for v in breach.violations]
    # 6. bad checksum fails at decode
    blob = bytearray(encode(base))
    blob[-5] ^= 0x40
    with pytest.raises(BadChecksum):
        decode(bytes(blob))

    for name, rec in recorded.items():
        assert verify(rec).ok, name
    for rec in record_graph(graphs["mixed3"], harness=RecordHarness(
            granularity=Granularity.PER_LAYER)).recordings:
        assert verify(rec).ok

    fixture = dataclasses.replace(base, actions=(
        MapGpuMem(0, 0, 0x400000, 3 * 4096, 1),
        MapGpuMem(0, 0, 0x500000, 2 * 4096, 1),
        UnmapGpuMem(0, 0, 0x400000, 3 * 4096)), dumps=(), io_table=())
    assert verify(fixture).peak_gpu_mem_bytes == 20480
    note("C7", "6 corruption fixtures hit R1/R2/R5/R4/R3/checksum; recorder "
               "output clean; peak fixture = 20480")


def test_c8_cross_sku(graphs):
    """A-recording patched to B replays correctly; exact edit counts;
    byte-identical round trip; unpatched replay on B refuses."""
    g = graphs["mixed3"]
    rec = record_graph(g).recordings[0]
    result = patch_recording(rec, SKU_A, SKU_B)
    assert result.recording_edits == 2
    assert result.job_edits == rec.job_count() == 4
    inp = random_input(g, 31)
    r = replay_once(result.recording, inp, sku=SKU_B, env_seed=8)
    assert r.ok and r.outputs[0] == g.evaluate(inp)
    back = patch_recording(result.recording, SKU_B, SKU_A).recording
    assert encode(back) == encode(rec)
    s = init(Device(sku=SKU_B, env_seed=9))
    with pytest.raises(LoadError):
        s.load(rec)
    s.cleanup()
    forced = init(Device(sku=SKU_B, env_seed=10), ReplayConfig(force=True))
    forced.load(rec)
    rf = forced.replay(inp)
    assert not rf.ok and rf.divergence.reg == "GPU_ID"
    forced.cleanup()
    note("C8", f"patched replay correct on B; edits 2+{result.job_edits}; "
               "round trip byte-identical; unpatched refused/diverged")


@pytest.fixture(scope="module")
def fifty_job():
    # odd-factor scales keep the output a bijection of the input, so the
    # discovery scan stays unambiguous even through 49 layers
    specs = [("scale", 3) if i % 2 == 0 else ("copy",) for i in range(49)]
    g = build_graph(specs, 16)  # 49 layers + staging copy = 50 jobs
    rec = record_graph(g).recordings[0]
    assert rec.job_count() == 50
    return g, rec


def test_c9_checkpoint_economics_and_preemption(fifty_job):
    """Per-job checkpointing costs >=2x; preemption acks under 1 ms and
    leaves the post-boot state."""
    g, rec = fifty_job
    inp = random_input(g, 3)
    plain = replay_once(rec, inp, env_seed=2)
    ck = replay_once(rec, inp, env_seed=2,
                     config=ReplayConfig(checkpoint_every_jobs=1))
    assert plain.ok and ck.ok and plain.outputs == ck.outputs
    ratio = ck.vclock_ns / plain.vclock_ns
    assert ratio >= 2.0

    s = init(Device(env_seed=4), ReplayConfig(checkpoint_every_jobs=16))
    s.load(rec)
    s.write_inputs(inp)
    while s.jobs_done < 20:
        assert s.step() is None
    ack = s.preempt()
    assert ack.delay_ns < 1_000_000
    fresh = Device(env_seed=0)
    fresh.reg_write(0x14, dv.CMD_SOFT_RESET)
    fresh.reg_write(0x0C, dv.IRQ_RESET_DONE)
    for off in (0x04, 0x08, 0x10, 0x20, 0x2C - 0x2C + 0x30, 0x34, 0x40):
        assert s.dev.reg_read(off) == fresh.reg_read(off), hex(off)
    # resume from the checkpoint at job 16 and finish the remaining jobs
    s.restore(s.last_checkpoint)
    assert s.jobs_done == 16
    while s.cursor < len(rec.actions):
        assert s.step() is None
    out = s._read_va(rec.outputs()[0].gpu_va, rec.outputs()[0].len_bytes)
    assert out == g.evaluate(inp)
    s.cleanup()
    note("C9", f"per-job checkpoints x{ratio:.1f} on 50 jobs; preempt ack "
               f"{ack.delay_ns} ns; post-boot state verified")


def test_c10_format_robustness(recorded, graphs):
    """Codec round trips on everything produced; 10,000 hostile decodes
    never crash; every dump of at least 8 KiB compresses below half."""
    produced = list(recorded.values())
    produced += record_graph(graphs["mixed3"], harness=RecordHarness(
        granularity=Granularity.PER_LAYER)).recordings
    produced.append(patch_recording(recorded["vec_add"], SKU_A, SKU_B).recording)
    for rec in produced:
        blob = encode(rec)
        assert decode(blob) == rec
        assert encode(decode(blob)) == blob

    rng = random.Random(0xF00D)
    template = encode(recorded["scale"])
    survived = 0
    for i in range(10_000):
        if i % 2 == 0:
            data = rng.randbytes(rng.randint(0, 600))
        else:
            buf = bytearray(template)
            for _ in range(rng.randint(1, 8)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            data = bytes(buf)
        try:
            decode(data)
        except DecodeError:
            pass
        survived += 1
    assert survived == 10_000

    large_dumps = [d for rec in produced for d in rec.dumps if d.raw_len >= 8192]
    assert large_dumps
    for d in large_dumps:
        assert len(d.payload) < d.raw_len / 2
    note("C10", "round trips exact; 10,000 hostile decodes clean; dumps of 8 KiB "
                f"or more compressed to at most "
                f"{max(len(d.payload) / d.raw_len for d in large_dumps):.0%}")


def test_c11_granularity(graphs):
    """Per-layer recordings replayed as a stitched sequence match the
    monolithic recording at <=1.5x its vclock."""
    g = graphs["mixed3"]
    mono = record_graph(g).recordings[0]
    layered = record_graph(g, harness=RecordHarness(
        granularity=Granularity.PER_LAYER)).recordings
    assert len(layered) == 3
    inp = random_input(g, 99)
    mr = replay_once(mono, inp, env_seed=6)
    s = init(Device(env_seed=6))
    seq = replay_sequence(s, layered, inp)
    s.cleanup()
    assert mr.ok and seq.ok
    assert seq.outputs[0] == mr.outputs[0] == g.evaluate(inp)
    ratio = seq.vclock_ns / mr.vclock_ns
    assert ratio <= 1.5
    note("C11", f"per-layer sequence output identical at x{ratio:.2f} vclock")
