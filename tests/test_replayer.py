"""Replay engine: lifecycle, stepping, pacing, divergence, recovery,
checkpointing, preemption, sequences."""

import dataclasses
import hashlib
import random
import signal
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gprr.device as dv
import gprr.recfmt as recfmt
import gprr.replayer as replayer
from gprr.actions import (ACTION_SCHEMAS, DumpOrigin, IoMode, LoadMemDump, MapGpuMem,
                          MemDump, RegRead, RegReadWait, RegWrite, UnmapGpuMem, WaitIrq,
                          ActionClass)
from gprr.device import Device, DeviceOwned, SKU_B
from gprr.patcher import patch
from gprr.recfmt import deflate, inflate
from gprr.recorder import RecordHarness, magic_bytes
from gprr.refstack import DelayPolicy, GpuStack, build_graph
from gprr.replayer import (MAX_ATTEMPTS, DivergenceKind, LoadError, ReplayConfig,
                           ReplayError, ReplaySession, expected_event_log,
                           init, replay_sequence)
from gprr.shader import OP_LDI, Asm
from gprr.verifier import verify

from conftest import (builtin_graphs, gprr_calls, i32s, random_input, record_chain64,
                      record_graph, replay_once, unpack32)


@pytest.fixture(scope="module")
def vecadd():
    g = build_graph([("vec_add",)], 8)
    return g, record_graph(g).recordings[0]


@pytest.fixture(scope="module")
def mixed():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 16)
    return g, record_graph(g).recordings[0]


def session_for(rec, *, sku=None, env_seed=1, config=None, clock_div=1):
    dev = Device(sku=sku or dv.SKU_A, env_seed=env_seed)
    dev.clock_div = clock_div
    s = init(dev, config or ReplayConfig())
    s.load(rec)
    return s


# -- init / cleanup ------------------------------------------------------------

def test_init_resets_and_claims():
    dev = Device()
    s = init(dev)
    assert dev.reg_read(0x04) & dv.STATUS_BUSY == 0
    with pytest.raises(DeviceOwned):
        init(dev)
    s.cleanup()
    init(dev).cleanup()  # claimable again


def test_cleanup_scrubs_session_pages(vecadd):
    g, rec = vecadd
    s = session_for(rec)
    r = s.replay(i32s([1, 2, 3, 4, 5, 6, 7, 8]))
    assert r.ok
    out_va = rec.outputs()[0].gpu_va
    pa = s._va_to_pa(out_va)
    assert s.dev.mem_read(pa, 16) != bytes(16)
    s.cleanup()
    assert s.dev.mem_read(pa, 16) == bytes(16)


@pytest.mark.parametrize("stage", ["load", "replay", "restore"])
def test_cleanup_scrubs_only_the_pages_the_session_may_have_written(mixed, stage):
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=int(stage == "restore")))
    if stage != "load":
        assert s.replay(random_input(g, 1)).ok
    if stage == "restore":
        s.restore(s.last_checkpoint)
        while s.cursor < len(rec.actions):
            assert s.step() is None
        assert s._cp_base.pages
    dirty = set(s.dev._dirty_pages)
    assert bool(dirty) == (stage != "load")
    # the image, the checkpoint base's pages and the dirty-page log
    touched = s._image.keys() | s._cp_base.pages.keys() | dirty
    free = s._free_pa
    assert len(touched) < (free >> dv.PAGE_SHIFT) - 1  # some session pages stay zero
    writes = count_writes(s.dev)
    s.cleanup()
    del s.dev.mem_write
    assert writes == Counter(touched)
    assert s.dev.mem_read(0, free) == bytes(free)


# -- load -----------------------------------------------------------------------

def test_load_restores_exec_pages_bit_identical(vecadd):
    # a load writes no dump byte; each dump's bytes are at its VA once its
    # LoadMemDump has run
    _, rec = vecadd
    s = session_for(rec)
    dumps = {d.dump_id: d for d in rec.dumps}
    for d in rec.dumps:
        assert s._read_va(d.gpu_va, d.raw_len) == bytes(d.raw_len)
    while s.cursor < len(rec.actions):
        a = rec.actions[s.cursor]
        assert s.step() is None
        if isinstance(a, LoadMemDump):
            d = dumps[a.dump_id]
            assert s._read_va(a.gpu_va, d.raw_len) == inflate(d.payload, d.raw_len)
    s.cleanup()


def test_load_refuses_wrong_sku(vecadd):
    _, rec = vecadd
    dev = Device(sku=SKU_B)
    s = init(dev)
    with pytest.raises(LoadError):
        s.load(rec)
    s.cleanup()


def test_forced_load_on_wrong_sku_diverges_at_gpu_id(vecadd):
    _, rec = vecadd
    dev = Device(sku=SKU_B)
    s = init(dev, ReplayConfig(force=True))
    s.load(rec)
    r = s.replay(i32s([0] * 8))
    assert not r.ok
    assert r.divergence.kind is DivergenceKind.VALUE_MISMATCH
    assert r.divergence.reg == "GPU_ID"
    assert r.divergence.expected == 0x0B31 and r.divergence.got == 0x0B71
    s.cleanup()


def test_load_refuses_unverifiable_recording(vecadd):
    _, rec = vecadd
    bad = dataclasses.replace(
        rec, actions=rec.actions + (RegWrite(0, 0, "NOT_A_REG", 1),))
    s = init(Device())
    with pytest.raises(LoadError):
        s.load(bad)
    s.cleanup()


def test_second_load_supersedes_first(vecadd, mixed):
    _, rec1 = vecadd
    g2, rec2 = mixed
    s = init(Device())
    s.load(rec1)
    s.load(rec2)
    inp = random_input(g2, 3)
    r = s.replay(inp)
    assert r.ok and r.outputs[0] == g2.evaluate(inp)
    s.cleanup()


def test_load_out_of_pages_leaves_nothing_loaded(vecadd):
    # each range fits the budget alone, but the replayer lays out both
    g, rec = vecadd
    big = 10 * 1024 * 1024
    too_big = dataclasses.replace(rec, actions=rec.actions + (
        MapGpuMem(0, 0, 0x4000_0000, big, 0b0011), UnmapGpuMem(0, 0, 0x4000_0000, big),
        MapGpuMem(0, 0, 0x6000_0000, big, 0b0011), UnmapGpuMem(0, 0, 0x6000_0000, big)))
    s = session_for(rec)
    assert s.replay(i32s(range(8))).ok
    with pytest.raises(LoadError, match="out of physical pages"):
        s.load(too_big)
    with pytest.raises(ReplayError, match="no recording loaded"):
        s.replay(i32s(range(8)))
    s.load(rec)
    inp = i32s(range(8, 16))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()


# refusal -> (the edit of a recording an unforced load refuses, its words);
# the tests of forced refusals and of running out of pages check the same
_REFUSALS = {
    "map-hash": (lambda rec: dataclasses.replace(rec, header=dataclasses.replace(
        rec.header, register_map_hash=bytes(32))), "register map hash"),
    "sku": (lambda rec: patch(rec, dv.SKU_A, SKU_B), "patch it first"),
    "verification": (lambda rec: dataclasses.replace(
        rec, actions=rec.actions + (RegWrite(0, 0, "NOT_A_REG", 1),)), "failed verification"),
}


@pytest.mark.parametrize("kind", list(_REFUSALS))
def test_a_refused_load_leaves_no_recording_loaded(vecadd, kind):
    # a refusal of the map hash, the SKU or verification used to leave the
    # recording loaded before it, which replayed with ok=True
    edit, why = _REFUSALS[kind]
    g, rec = vecadd
    s = session_for(rec)
    assert s.replay(i32s(range(8))).ok
    with pytest.raises(LoadError, match=why):
        s.load(edit(rec))
    for call in (s.replay, s.step):
        with pytest.raises(ReplayError, match="no recording loaded"):
            call()
    s.cleanup()


def test_forced_load_refuses_an_unaligned_range(vecadd):
    g, rec = vecadd
    unaligned = dataclasses.replace(rec, actions=rec.actions + (
        MapGpuMem(0, 0, 0x0100_0800, dv.PAGE_SIZE, 0b0011),))
    s = session_for(rec, config=ReplayConfig(force=True))
    with pytest.raises(LoadError, match="not page-aligned"):
        s.load(unaligned)
    with pytest.raises(ReplayError, match="no recording loaded"):
        s.replay(i32s(range(8)))
    s.cleanup()


@pytest.mark.parametrize("stray, why", [
    (UnmapGpuMem(0, 0, 0x0700_0000, dv.PAGE_SIZE), "R5 action 0: unmap of never-mapped"),
    (LoadMemDump(0, 0, 0xDEAD, 0x0700_0000), "R4 action 0: references missing dump"),
], ids=["unmap-of-no-range", "dump-id-of-no-dump"])
def test_forced_load_refuses_what_names_nothing(vecadd, stray, why):
    # the verifier reports both (R5, R4), and a forced load refuses them
    # in its words; forced past them, replay used to raise a builtin
    # KeyError / AttributeError from the action's handler
    g, rec = vecadd
    forced = dataclasses.replace(rec, actions=(stray,) + rec.actions)
    assert not verify(forced).ok
    s = session_for(rec, config=ReplayConfig(force=True))
    with pytest.raises(LoadError, match=why):
        s.load(forced)
    with pytest.raises(ReplayError, match="no recording loaded"):
        s.replay(i32s(range(8)))
    s.load(rec)
    inp = i32s(range(8, 16))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()


def test_forced_load_refuses_a_dump_whose_own_address_differs(vecadd):
    g, rec = vecadd
    moved = recfmt.decode(recfmt.encode(dataclasses.replace(rec, dumps=tuple(
        dataclasses.replace(d, gpu_va=0xDEAD123) for d in rec.dumps))))
    s = session_for(rec, config=ReplayConfig(force=True))
    with pytest.raises(LoadError, match=r"R4 action \d+: dump \d+ is for 0xdead123"):
        s.load(moved)
    assert s.loaded is None
    s.cleanup()


def test_a_poll_over_the_drivers_limit_is_refused_even_when_forced(graphs, recorded):
    # a poll that never matches (its value has bits outside its mask) reads
    # 2 x max_polls times per attempt: at 2^32 - 1 replay hung, and a forced
    # load took it
    g, rec = graphs["mixed3"], recorded["mixed3"]
    i = next(i for i, a in enumerate(rec.actions) if isinstance(a, RegReadWait))
    a = rec.actions[i]

    def with_poll(max_polls):
        poll = dataclasses.replace(a, max_polls=max_polls, expect_value=dv.U32)
        return dataclasses.replace(rec, actions=rec.actions[:i] + (poll,) + rec.actions[i + 1:])

    assert [(v.action_index, v.rule) for v in verify(with_poll(dv.U32)).violations] == [(i, "R9")]
    assert verify(with_poll(dv.POLL_MAX_READS)).ok
    s = session_for(rec, config=ReplayConfig(force=True))

    def timeout(*_):
        raise TimeoutError("replay still polling")
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(LoadError, match="poll of up to 4294967295 reads"):
            s.load(with_poll(dv.U32))
            s.replay(random_input(g, 1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    s.cleanup()


def test_a_poll_that_cannot_match_stops_when_nothing_is_pending(graphs, recorded):
    # the driver's own limit of reads, which R9 accepts, on a value that
    # never matches: once no device event is pending the register cannot
    # change, so each attempt stops there instead of reading 200,000 times
    g, rec = graphs["mixed3"], recorded["mixed3"]
    i = next(i for i, a in enumerate(rec.actions) if isinstance(a, RegReadWait))
    poll = dataclasses.replace(rec.actions[i], max_polls=dv.POLL_MAX_READS,
                               expect_value=dv.U32)
    edited = dataclasses.replace(rec, actions=rec.actions[:i] + (poll,) + rec.actions[i + 1:])
    assert verify(edited).ok
    t0 = time.perf_counter()
    result = replay_once(edited, random_input(g, 1))
    assert time.perf_counter() - t0 < 0.5
    assert not result.ok
    d = result.divergence
    assert (d.kind, d.action_index) == (DivergenceKind.TIMEOUT, i)
    assert d.detail.startswith("nothing pending after")


def test_a_poll_on_job_progress_stops_when_nothing_is_pending(graphs, recorded):
    # JOB_PROGRESS reads random bits, but with no device event pending it
    # cannot match any more than another register can; a poll on it that
    # read its whole budget (2 x POLL_MAX_READS x the multiplier) on every
    # attempt took seconds
    g, rec = graphs["mixed3"], recorded["mixed3"]
    i = next(i for i, a in enumerate(rec.actions) if isinstance(a, RegReadWait))
    poll = dataclasses.replace(rec.actions[i], reg_name="JOB_PROGRESS", mask=dv.U32,
                               max_polls=dv.POLL_MAX_READS)
    edited = dataclasses.replace(rec, actions=rec.actions[:i] + (poll,) + rec.actions[i + 1:])
    assert verify(edited).ok
    t0 = time.perf_counter()
    result = replay_once(edited, random_input(g, 1))
    assert time.perf_counter() - t0 < 0.5
    assert not result.ok
    d = result.divergence
    assert (d.kind, d.action_index, d.reg) == (DivergenceKind.TIMEOUT, i, "JOB_PROGRESS")
    assert d.detail.startswith("nothing pending after")


def test_a_poll_is_not_cut_short_by_an_event_that_ends_in_its_read(graphs, recorded):
    # a flush can finish in the tick that follows a poll's read: the next
    # read sees it, so an empty event queue after the read stops nothing
    # (env seeds 0, 2 and 11 hit that tick)
    g, rec = graphs["vec_add"], recorded["vec_add"]
    for seed in range(16):
        result = replay_once(rec, random_input(g, seed), env_seed=seed)
        assert result.ok and result.recovery_attempts == 0, seed


def test_range_is_as_long_as_its_largest_map(vecadd):
    # a 1-page map, an unmap, then a 4-page remap of the same base and a
    # 16 KiB dump loaded there: the verifier passes it, so load must too
    g, rec = vecadd
    va, data = 0x0200_0000, bytes(range(256)) * 64
    dump = MemDump(max(d.dump_id for d in rec.dumps) + 1, va, len(data),
                   deflate(data), DumpOrigin.MAPPED_FALLBACK)
    remapped = dataclasses.replace(rec, dumps=rec.dumps + (dump,), actions=rec.actions + (
        MapGpuMem(0, 0, va, dv.PAGE_SIZE, 0b0011), UnmapGpuMem(0, 0, va, dv.PAGE_SIZE),
        MapGpuMem(0, 0, va, 4 * dv.PAGE_SIZE, 0b0011), LoadMemDump(0, 0, dump.dump_id, va)))
    assert verify(remapped).ok
    s = session_for(remapped)
    inp = i32s(range(8))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    assert s._read_va(va, len(data)) == data
    s.cleanup()


def test_r4_checks_the_dump_replay_loads_the_first_of_its_id(vecadd):
    # Two dumps share an id: R4 used to check the last and replay loads the
    # first, so an 8 KiB first dump into a one-page range verified clean as
    # the 16-byte second and spilled, on replay, into the next range.
    g, rec = vecadd
    va, big, small = 0x0700_0000, b"\xAA" * (2 * dv.PAGE_SIZE), bytes(16)

    def with_dumps(*datas):
        return dataclasses.replace(rec, dumps=rec.dumps + tuple(
            MemDump(999, va, len(d), deflate(d), DumpOrigin.MAPPED_FALLBACK) for d in datas),
            actions=rec.actions + (MapGpuMem(0, 0, va, dv.PAGE_SIZE, 0b0011),
                                   MapGpuMem(0, 0, va + dv.PAGE_SIZE, dv.PAGE_SIZE, 0b0011),
                                   LoadMemDump(0, 0, 999, va)))
    spill = recfmt.decode(recfmt.encode(with_dumps(big, small)))
    why = f"R4 action {len(rec.actions) + 2}: dump load at 0x7000000+0x2000 outside mapping"
    assert [f"{v.rule} action {v.action_index}: {v.message}"
            for v in verify(spill).violations] == [why]
    s = session_for(rec, config=ReplayConfig(force=True))
    with pytest.raises(LoadError) as refused:
        s.load(spill)
    assert str(refused.value) == why
    s.load(with_dumps(small, big))
    inp = i32s(range(8))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    assert s._read_va(va, 2 * dv.PAGE_SIZE) == bytes(2 * dv.PAGE_SIZE)
    s.cleanup()


def test_load_that_fails_to_lay_out_leaves_nothing_loaded(vecadd):
    # a dump loaded outside every range (R4) is refused even when forced,
    # before a page is written; it used to be refused mid-layout
    g, rec = vecadd
    dump = MemDump(max(d.dump_id for d in rec.dumps) + 1, 0x0300_0000, 16,
                   deflate(bytes(16)), DumpOrigin.MAPPED_FALLBACK)
    stray = dataclasses.replace(rec, dumps=rec.dumps + (dump,), actions=rec.actions + (
        LoadMemDump(0, 0, dump.dump_id, dump.gpu_va),))
    s = session_for(rec, config=ReplayConfig(force=True))
    writes = count_writes(s.dev)
    with pytest.raises(LoadError, match=f"R4 action {len(rec.actions)}: dump load at 0x3000000"):
        s.load(stray)
    del s.dev.mem_write
    assert not writes
    with pytest.raises(ReplayError, match="no recording loaded"):
        s.replay(i32s(range(8)))
    s.load(rec)
    inp = i32s(range(8, 16))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()


def reference_layout(dev, rec):
    """The layout as load once wrote it, straight onto ``dev``: zero every
    session page, write each L1 and then each L2 entry on its own, with
    the permissions translated through ``Perm``, then read back each page
    the device logged. Returns the non-zero pages, the VA page map and the
    footprint's end."""
    page, zero = dv.PAGE_SIZE, bytes(dv.PAGE_SIZE)
    from_sku = dv.SKUS_BY_ID.get(rec.header.sku_id, dev.sku)
    ranges = {}
    for a in rec.actions:
        if isinstance(a, MapGpuMem):
            pages = max(1, -(-a.len_bytes // page))
            first = ranges.get(a.gpu_va)
            if first is None:
                ranges[a.gpu_va] = (pages, [], a.perm_flags_encoded)
            elif pages > first[0]:
                ranges[a.gpu_va] = (pages, [], first[2])
    free = [page]

    def alloc():
        pa = free[0]
        if pa + page > dv.MEM_BYTES:
            raise LoadError("out of physical pages")
        free[0] += page
        return pa

    l1_pa, l2_pages = alloc(), {}
    for va, (pages, pas, _) in ranges.items():
        for i in range(pages):
            l1_idx = ((va + i * page) >> 22) & 0x3FF
            if l1_idx not in l2_pages:
                l2_pages[l1_idx] = alloc()
            pas.append(alloc())
    page_pa = {}
    for va, (_, pas, _) in ranges.items():
        for i, pa in enumerate(pas):
            page_pa[(va >> dv.PAGE_SHIFT) + i] = pa
    for pa in [pa for _, pas, _ in ranges.values() for pa in pas] + [*l2_pages.values(), l1_pa]:
        dev.mem_write(pa, zero)
    dev.take_dirty_pages()
    for l1_idx, l2_pa in l2_pages.items():
        entry = l2_pa | dev.sku.encode_perms(dv.Perm.VALID | dv.Perm.READ)
        dev.mem_write(l1_pa + l1_idx * 4, entry.to_bytes(4, "little"))
    for va, (_, pas, bits) in ranges.items():
        pte_bits = dev.sku.encode_perms(from_sku.decode_perms(bits) | dv.Perm.VALID)
        for i, pa in enumerate(pas):
            page_va = va + i * page
            l2_pa = l2_pages[(page_va >> 22) & 0x3FF]
            dev.mem_write(l2_pa + ((page_va >> 12) & 0x3FF) * 4,
                          (pa | pte_bits).to_bytes(4, "little"))
    image = {}
    for ppn in dev.take_dirty_pages():
        data = dev.mem_read(ppn << dv.PAGE_SHIFT, page)
        if data != zero:
            image[ppn] = data
    return image, page_pa, free[0]


def count_writes(dev):
    """Count, per physical page, the ``mem_write`` calls that touch it
    from now until ``del dev.mem_write``."""
    writes, write = Counter(), dev.mem_write
    dev.mem_write = lambda pa, data: (
        writes.update(range(pa >> dv.PAGE_SHIFT, (pa + len(data) + dv.PAGE_SIZE - 1) >> dv.PAGE_SHIFT)),
        write(pa, data))
    return writes


# Extra ranges near a recorded range, near a fresh base and across the
# 4 MiB edge of an L2 table; each that would overlap another range (R7,
# which a load refuses) is left out. Dumps do not shape a layout: load
# writes none.
_BASES = (None, 0x0100_0000, 0x003F_E000)
extra_maps = st.lists(st.tuples(st.sampled_from(_BASES), st.integers(-3, 3),
                                st.integers(1, 3 * dv.PAGE_SIZE), st.integers(0, 255)),
                      max_size=6)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(builtin_graphs())), sku=st.sampled_from([dv.SKU_A, SKU_B]),
       maps=extra_maps, reload=st.booleans())
def test_load_lays_out_what_writing_each_entry_did(recorded, vecadd, name, sku, maps, reload):
    rec = recorded[name]
    first = next(a for a in rec.actions if isinstance(a, MapGpuMem)).gpu_va
    page = dv.PAGE_SIZE
    forced = rec
    for base, shift, length, perm in maps:
        more = dataclasses.replace(forced, actions=forced.actions + (
            MapGpuMem(0, 0, (base or first) + shift * page, length, perm),))
        if "R7" not in {v.rule for v in verify(more).violations}:
            forced = more

    ref_dev = Device(sku=sku)
    try:
        want = reference_layout(ref_dev, forced)
    except ReplayError as e:
        want = e
    dev = Device(sku=sku)
    s = init(dev, ReplayConfig(force=True))
    earlier = count_writes(dev)  # the pages this session wrote before the load
    if reload:  # over a replayed load of a recording with a larger footprint
        g, small = vecadd
        va, fill = 0x0200_0000, b"\x5A" * (64 * page)
        big = MemDump(max(d.dump_id for d in small.dumps) + 1, va, len(fill), deflate(fill),
                      DumpOrigin.MAPPED_FALLBACK)
        prior = dataclasses.replace(small, dumps=small.dumps + (big,), actions=small.actions + (
            MapGpuMem(0, 0, va, len(fill), 0b0011), LoadMemDump(0, 0, big.dump_id, va)))
        s.load(patch(prior, dv.SKU_A, sku))
        assert s.replay(i32s(range(8))).ok
    del dev.mem_write
    touched = s._free_pa  # no page past this or the new footprint was written
    stale = -(-dev.written_end // page)  # pages that may hold bytes before the load
    writes = count_writes(dev)
    if isinstance(want, ReplayError):
        with pytest.raises(type(want)) as got:
            s.load(forced)
        assert str(got.value) == str(want)
        assert not writes  # RAM as it was, for the next load or cleanup
    else:
        s.load(forced)
        image, page_pa, end = want
        assert s._image == image
        assert s._page_pa == page_pa
        assert s._free_pa == end
        touched = max(touched, end)
        # each non-zero page, and each page that may have held bytes, once:
        # those the session wrote, and past its footprint those below the
        # device's bound
        assert writes == Counter(image.keys() | {*earlier, *range(touched >> dv.PAGE_SHIFT, stale)})
        assert dev.mem_read(0, touched) == ref_dev.mem_read(0, touched)
        assert dev.take_dirty_pages() == ref_dev.take_dirty_pages() == set()
    del dev.mem_write
    s.cleanup()


def table_pages(s):
    """The physical page numbers of a session's L1 and L2 tables."""
    return {pa >> dv.PAGE_SHIFT for pa in (replayer._L1_PA, *s._l2_pages.values())}


# a large-buffer and a many-job workload, beside the built-in ones
_LARGE = {
    "vecadd-16k": build_graph([("vec_add",)], 16384),
    "chain-64": build_graph([("scale", 3) if i % 2 == 0 else ("copy",) for i in range(63)], 16),
}


@pytest.mark.parametrize("name", sorted(builtin_graphs()) + list(_LARGE))
def test_a_load_onto_a_fresh_device_writes_only_its_non_zero_pages(graphs, recorded, name):
    # the non-zero pages of a load are its table pages, no dump among them:
    # an L1 table and one L2 table, as every range here lies in one 4 MiB
    g = graphs.get(name) or _LARGE[name]
    rec = recorded.get(name) or record_graph(g).recordings[0]
    ref_dev = Device()
    image, _, end = reference_layout(ref_dev, rec)
    dev = Device()
    s = init(dev)
    writes = count_writes(dev)
    s.load(rec)
    del dev.mem_write
    assert s._image == image
    assert s._image.keys() == table_pages(s) and len(s._image) == 2
    assert writes == Counter(table_pages(s))
    assert dev.mem_read(0, end) == ref_dev.mem_read(0, end)
    inp = random_input(g, 2)
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()


@pytest.mark.parametrize("replayed", [False, True])
def test_a_load_scrubs_what_an_earlier_load_or_replay_left_past_it(vecadd, replayed):
    # The earlier recording maps 64 more pages, and loads a dump there,
    # before its output range, so that dump and the output land past the
    # later footprint. Loaded only, the earlier session wrote its table
    # pages alone, below that footprint; replayed, it wrote the dump and
    # the output past it, and the later load scrubs them.
    g, small = vecadd
    pad_va, pad = 0x0200_0000, 64 * dv.PAGE_SIZE
    out_map = next(a for a in small.actions
                   if isinstance(a, MapGpuMem) and a.gpu_va == small.outputs()[0].gpu_va)
    actions = [a for a in small.actions if a is not out_map]
    at = 1 + max(i for i, a in enumerate(actions) if isinstance(a, MapGpuMem))
    dump = MemDump(max(d.dump_id for d in small.dumps) + 1, pad_va, pad,
                   deflate(b"\x5A" * pad), DumpOrigin.MAPPED_FALLBACK)
    actions[at:at] = [MapGpuMem(0, 0, pad_va, pad, 0b0011),
                      LoadMemDump(0, 0, dump.dump_id, pad_va), out_map]
    prior = dataclasses.replace(small, actions=tuple(actions), dumps=small.dumps + (dump,))
    dev = Device()
    s = init(dev, ReplayConfig(force=True))
    s.load(prior)
    assert dev.written_end == (max(table_pages(s)) + 1) << dv.PAGE_SHIFT
    if replayed:
        assert s.replay(i32s(range(8))).ok
    touched = s._free_pa
    ref_dev = Device()
    image, _, end = reference_layout(ref_dev, small)
    assert (dev.written_end > end) == replayed
    s.load(small)
    assert s._image == image
    assert dev.mem_read(0, touched) == ref_dev.mem_read(0, touched)
    inp = i32s(range(8, 16))
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()


@pytest.fixture(scope="module")
def chain64():
    g = _LARGE["chain-64"]
    return g, record_graph(g).recordings[0]


@pytest.mark.parametrize("every", [0, 1])
def test_a_reload_writes_only_the_pages_that_may_hold_bytes(chain64, every):
    # After a replay, RAM may hold bytes only in the pages the session
    # wrote or its flushes committed: a second load of the same recording
    # rewrites those and its table pages, not every page below the
    # footprint as it once did
    g, rec = chain64
    page = dv.PAGE_SIZE
    dev = Device()
    s = init(dev, ReplayConfig(checkpoint_every_jobs=every))
    written = count_writes(dev)
    s.load(rec)
    inp = random_input(g, 3)
    assert s.replay(inp).ok
    del dev.mem_write
    footprint = s._free_pa >> dv.PAGE_SHIFT
    assert -(-dev.written_end >> dv.PAGE_SHIFT) == footprint
    held = {p for p in range(footprint) if dev.mem_read(p * page, page) != bytes(page)}
    writes = count_writes(dev)
    s.load(rec)
    del dev.mem_write
    assert writes == Counter(held | written.keys() | table_pages(s))
    assert len(writes) < 0.65 * footprint  # chain-64: 195 of 323 pages
    fresh = init(Device())
    fresh.load(rec)
    assert dev.mem_read(0, s._free_pa) == fresh.dev.mem_read(0, s._free_pa)
    inp = random_input(g, 4)
    assert s.replay(inp).outputs == [g.evaluate(inp)]
    s.cleanup()
    fresh.cleanup()


def test_a_replayed_action_costs_few_calls_into_gprr(chain64):
    # Per action: step and its handler, then per register access one frame
    # to Device.reg_write or reg_read and Device.tick, which makes no call
    # when nothing is due. A chain-64 replay made 12.4 calls into gprr code
    # per action (its compiled shader loops included) before that; now
    # about 8.2
    g, rec = chain64
    s = init(Device(env_seed=1))
    s.load(rec)
    inp = random_input(g, 1)
    assert s.replay(inp).ok
    result, calls = gprr_calls(s.replay, inp)
    assert result.outputs == [g.evaluate(inp)]
    assert calls <= 9 * len(rec.actions), calls / len(rec.actions)
    s.cleanup()


def test_a_load_costs_fewer_calls_into_gprr_than_the_file_has_actions():
    # The codec's generated reader builds every action in its own frame and
    # verify checks each in one loop body, so what calls remain are per
    # dump, per range and per device set-up. A chain-64 decode, init and
    # load made 3,642 calls for 1,224 actions when each action was built
    # and verified through a call of its own; now about 600
    rec = record_chain64().recordings[0]
    blob = recfmt.encode(rec)

    def load():
        s = init(Device(env_seed=2))
        s.load(recfmt.decode(blob))
        return s

    s, calls = gprr_calls(load)
    assert s.loaded == rec
    actions = len(rec.actions)
    assert calls < actions, (calls, actions)
    s.cleanup()


# -- replay basics -----------------------------------------------------------------

def test_va_to_pa_matches_the_ranges_pages(vecadd):
    g, rec = vecadd
    page = dv.PAGE_SIZE
    first = next(a for a in rec.actions if isinstance(a, MapGpuMem))
    perm = first.perm_flags_encoded
    extra = (  # each edge to edge with a range before it
        MapGpuMem(0, 0, first.gpu_va - page, page, perm),
        MapGpuMem(0, 0, 0x0100_0000, 2 * page, perm),
        MapGpuMem(0, 0, 0x0100_2000, 2 * page, perm),
    )
    s = session_for(dataclasses.replace(rec, actions=rec.actions + extra))

    def scan(va):
        for base, (pages, pas, _) in s._ranges.items():
            if base <= va < base + pages * page:
                return pas[(va - base) // page] + (va - base) % page
        return None

    probes = [base + d for base in (first.gpu_va, 0x0100_0000)
              for d in range(-2 * page, 6 * page, 0x3F0)]
    for va in probes:
        want = scan(va)
        if want is None:
            with pytest.raises(ReplayError):
                s._va_to_pa(va)
        else:
            assert s._va_to_pa(va) == want


def test_a_forced_load_refuses_overlapping_ranges():
    # a range one page below the output's, over its first page: load would
    # point that page's PTE at the later range's page while the session
    # reads and writes the earlier one's, so a replay would read back an
    # output the job never wrote
    g = builtin_graphs()["vec_add"]
    rec = record_graph(g).recordings[0]
    base = rec.outputs()[0].gpu_va
    perm = next(a for a in rec.actions if isinstance(a, MapGpuMem)).perm_flags_encoded
    bad = dataclasses.replace(rec, actions=rec.actions + (
        MapGpuMem(0, 0, base - dv.PAGE_SIZE, 2 * dv.PAGE_SIZE, perm),))
    assert {v.rule for v in verify(bad).violations} == {"R7"}
    s = init(Device(), ReplayConfig(force=True))
    with pytest.raises(LoadError, match="^R7 action"):
        s.load(bad)
    s.cleanup()


def test_recording_with_an_overlapping_range_fails_to_load(mixed):
    # the extra range would re-point the first layer's page table entries
    _, rec = mixed
    bad = dataclasses.replace(rec, actions=rec.actions + (
        MapGpuMem(0, 0, 0x3FF000, 3 * dv.PAGE_SIZE, 0b0011),))
    s = init(Device())
    with pytest.raises(LoadError):
        s.load(bad)
    s.cleanup()


def test_replay_new_inputs(vecadd):
    g, rec = vecadd
    r = replay_once(rec, i32s([10, 20, 30, 40, 1, 2, 3, 4]))
    assert r.ok and unpack32(r.outputs[0]) == [11, 22, 33, 44]


@pytest.mark.parametrize("mode", list(IoMode))
def test_output_follows_the_input_mode(mode):
    g = build_graph([("vec_add",)], 64)
    harness = RecordHarness(input_modes={0: mode})
    result = record_graph(g, harness=harness)
    baked = magic_bytes(harness.magic_seed, len(result.trials), g.input_elems * 4)
    fresh = random_input(g, 5)
    if mode is IoMode.BY_VALUE:  # nothing to supply: the baked bytes run
        cases = [(None, baked)]
    elif mode is IoMode.BY_ADDRESS:
        cases = [([fresh], fresh), ({0: fresh}, fresh)]
    else:  # supplied bytes win; left out, the baked ones run
        other = random_input(g, 6)
        cases = [([fresh], fresh), ({0: other}, other), (None, baked), ([fresh], fresh)]
    s = session_for(result.recordings[0])
    for inputs, used in cases:
        r = s.replay(inputs)
        assert r.ok and r.outputs == [g.evaluate(used)]
    s.cleanup()


def test_a_supplied_both_mode_input_beats_every_dump_over_it():
    # two dumps loaded before the kick lie over the input: the first covers
    # all of it, the second its second half and the bytes after it.
    # Supplied bytes win over both; left out, the later dump wins where
    # the two overlap
    g = build_graph([("vec_add",)], 64)
    rec = record_graph(g, harness=RecordHarness(input_modes={0: IoMode.BOTH})).recordings[0]
    (inp,) = rec.inputs()
    n, half = inp.len_bytes, inp.len_bytes // 2
    whole, part = random_input(g, 7), random_input(g, 8)
    k = len(rec.dumps)
    extra = [MemDump(k, inp.gpu_va, n, deflate(whole), DumpOrigin.MAPPED_FALLBACK),
             MemDump(k + 1, inp.gpu_va + half, n, deflate(part), DumpOrigin.MAPPED_FALLBACK)]
    kick = next(i for i, a in enumerate(rec.actions)
                if isinstance(a, RegWrite) and a.reg_name == "JOB_START")
    loads = tuple(LoadMemDump(0, 0, d.dump_id, d.gpu_va) for d in extra)
    rec = dataclasses.replace(rec, actions=rec.actions[:kick] + loads + rec.actions[kick:],
                              dumps=rec.dumps + tuple(extra))
    assert verify(rec).ok
    fresh = random_input(g, 5)
    s = session_for(rec)
    for inputs, used in [([fresh], fresh), (None, whole[:half] + part[:n - half]),
                         ({0: fresh}, fresh)]:
        r = s.replay(inputs)
        assert r.ok and r.outputs == [g.evaluate(used)]
    s.cleanup()


# -- dump bytes ----------------------------------------------------------------------

def test_each_dump_is_inflated_once_per_load(mixed, monkeypatch):
    # decode inflates each distinct dump of a file once, and load and
    # replays use the bytes it kept; a recording built by the recorder
    # keeps each snapshot it deflated and is never inflated
    g, built = mixed
    assert all(d.raw == inflate(d.payload, d.raw_len) for d in built.dumps)
    calls = []

    def counting(payload, raw_len=None):
        calls.append(raw_len)
        return inflate(payload, raw_len)

    monkeypatch.setattr(recfmt, "inflate", counting)
    monkeypatch.setattr(replayer, "inflate", counting)
    rec = recfmt.decode(recfmt.encode(built))
    assert all(d.raw is not None for d in rec.dumps)
    s = session_for(rec)
    for seed in range(3):
        inp = random_input(g, seed)
        assert s.replay(inp).outputs == [g.evaluate(inp)]
    assert len(calls) == len({(d.payload, d.raw_len) for d in rec.dumps})
    calls.clear()
    s.load(built)
    for seed in range(3, 6):
        inp = random_input(g, seed)
        assert s.replay(inp).outputs == [g.evaluate(inp)]
    assert calls == []
    s.cleanup()


def many_dumps_into_one_page(rec, n):
    """``rec`` with ``n`` distinct one-page dumps, each built with no
    ``raw``, loaded in turn into one new one-page range; that range's VA,
    and the bytes of the last dump."""
    va, page = 0x0200_0000, dv.PAGE_SIZE
    first_id = max(d.dump_id for d in rec.dumps) + 1
    dumps = tuple(MemDump(first_id + i, va, page, deflate(i.to_bytes(4, "little") * (page // 4)),
                          DumpOrigin.MAPPED_FALLBACK) for i in range(n))
    many = dataclasses.replace(rec, dumps=rec.dumps + dumps, actions=rec.actions + (
        MapGpuMem(0, 0, va, page, 0b0011),
        *(LoadMemDump(0, 0, d.dump_id, va) for d in dumps)))
    assert verify(many).ok
    return many, va, (n - 1).to_bytes(4, "little") * (page // 4)


def check_replays_within_footprint(g, s, va, last):
    """Two replays of ``s`` return ``evaluate``'s output and leave ``last``
    at ``va``; the second allocates no more than the session's pages."""
    footprint, page = s._free_pa, dv.PAGE_SIZE
    tracemalloc.start()
    try:
        for k in range(2):
            if k:
                tracemalloc.reset_peak()  # the peak counts what replay 0 still holds
            inp = i32s(range(k, k + 8))
            r = s.replay(inp)
            assert r.outputs == [g.evaluate(inp)]
            assert s._read_va(va, page) == last
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the allowance covers zlib's 32 KiB window while one dump inflates
    assert peak < footprint + page + 96 * 1024, (peak, footprint)


def test_dump_cache_holds_no_more_than_the_session_footprint(vecadd):
    # 256 distinct one-page dumps loaded in turn into one one-page range:
    # 1 MiB of raw bytes from a few KiB of file, far past the session's pages
    g, rec = vecadd
    many, va, last = many_dumps_into_one_page(rec, 256)
    s = session_for(many)
    assert 256 * dv.PAGE_SIZE > 16 * s._free_pa
    check_replays_within_footprint(g, s, va, last)
    s.cleanup()


def test_a_decoded_file_past_the_decoder_cap_replays_within_the_footprint(vecadd):
    # more distinct one-page dumps than the 16 MiB decode keeps: the last
    # ones come back with no raw bytes, and replay inflates them at each use
    g, rec = vecadd
    n = dv.MEM_BYTES // dv.PAGE_SIZE + 16
    many, va, last = many_dumps_into_one_page(rec, n)
    decoded = recfmt.decode(recfmt.encode(many))
    assert decoded.dumps[len(rec.dumps)].raw is not None
    assert decoded.dumps[-1].raw is None
    s = session_for(decoded)
    check_replays_within_footprint(g, s, va, last)
    s.cleanup()


def test_missing_required_input_rejected_before_actions(vecadd):
    _, rec = vecadd
    s = session_for(rec)
    with pytest.raises(ReplayError):
        s.replay(None)
    with pytest.raises(ReplayError):
        s.replay(b"\x01" * 12)  # wrong length
    assert s.cursor == 0
    s.cleanup()


def test_event_log_matches_recording(vecadd):
    g, rec = vecadd
    s = session_for(rec)
    r = s.replay(i32s([1, 1, 1, 1, 2, 2, 2, 2]))
    assert r.ok
    assert r.event_log == expected_event_log(rec)
    s.cleanup()


def test_outputs_equal_reference_across_seeds(mixed):
    g, rec = mixed
    inp = random_input(g, 77)
    ref = g.evaluate(inp)
    logs = set()
    for seed in range(6):
        r = replay_once(rec, inp, env_seed=seed)
        assert r.ok and r.outputs[0] == ref
        logs.add(tuple(r.event_log))
    assert len(logs) == 1  # state-changing sequence is seed-invariant


# -- stepping and pacing -----------------------------------------------------------------

def test_pacing_floor_consumed(vecadd):
    _, rec = vecadd
    # inflate the pacing floor of one mid-action and check the clock honors it
    idx = next(i for i, a in enumerate(rec.actions)
               if isinstance(a, RegWrite) and a.reg_name == "JOB_START")
    padded = dataclasses.replace(
        rec, actions=tuple(
            dataclasses.replace(a, min_interval_ns=50_000) if i == idx else a
            for i, a in enumerate(rec.actions)))
    s = session_for(padded)
    s.write_inputs(i32s([0] * 8))
    t0 = s.dev.vclock_ns
    while s.cursor <= idx:
        assert s.step() is None
    assert s.dev.vclock_ns - t0 >= 50_000
    s.cleanup()


def test_no_skip_replays_raw_intervals():
    g = build_graph([("vec_add",)], 8)
    rec = record_graph(g, delays=DelayPolicy(jit_ns=50_000, mgmt_ns=20_000)
                       ).recordings[0]
    inp = i32s([3, 1, 4, 1, 5, 9, 2, 6])
    fast = replay_once(rec, inp)
    slow = replay_once(rec, inp, config=ReplayConfig(honor_skips=False))
    assert fast.ok and slow.ok and fast.outputs == slow.outputs
    assert slow.vclock_ns > fast.vclock_ns
    assert slow.vclock_ns >= 1.1 * fast.vclock_ns


def test_nondet_read_never_compared(vecadd):
    _, rec = vecadd
    # the JOB_PROGRESS read draws fresh randomness per replay yet never diverges
    assert any(isinstance(a, RegRead) and a.state_class is ActionClass.NONDET
               for a in rec.actions)
    for seed in (3, 4):
        assert replay_once(rec, i32s([0] * 8), env_seed=seed).ok


# -- divergences -------------------------------------------------------------------------

def test_value_mismatch_reports_action(vecadd):
    _, rec = vecadd
    idx, bad = next(
        (i, a) for i, a in enumerate(rec.actions)
        if isinstance(a, RegRead) and a.reg_name == "JOB_STATUS")
    evil = dataclasses.replace(
        rec, actions=tuple(
            dataclasses.replace(a, expect_value=7) if i == idx else a
            for i, a in enumerate(rec.actions)))
    s = session_for(evil)
    r = s.replay(i32s([0] * 8))
    assert not r.ok
    assert r.divergence.kind is DivergenceKind.VALUE_MISMATCH
    assert r.divergence.action_index == idx
    assert r.recovery_attempts == 4
    assert r.divergence.origin.endswith(f"#action{idx}")
    s.cleanup()


def test_bad_register_in_shader_dump_diverges(vecadd):
    _, rec = vecadd
    head = next(a.value for a in rec.actions
                if isinstance(a, RegWrite) and a.reg_name == "JOB_HEAD_LO")

    def dump_at(va):
        return next(d for d in rec.dumps if d.gpu_va <= va < d.gpu_va + d.raw_len)

    desc = dump_at(head)
    raw = inflate(desc.payload, desc.raw_len)
    shader_va = int.from_bytes(raw[head - desc.gpu_va + 4:][:4], "little")
    shader = dump_at(shader_va)
    code = bytearray(inflate(shader.payload, shader.raw_len))
    at = shader_va - shader.gpu_va
    code[at:at + 4] = ((OP_LDI << 24) | (9 << 20)).to_bytes(4, "little")  # ldi r9
    bad = dataclasses.replace(shader, payload=deflate(bytes(code)))
    evil = dataclasses.replace(rec, dumps=tuple(
        bad if d is shader else d for d in rec.dumps))
    s = session_for(evil)
    r = s.replay(i32s([0] * 8))
    assert not r.ok and r.divergence is not None
    assert s.dev.reg_read(dv.DEFAULT_REGISTER_MAP.by_name("JOB_STATUS").offset) \
        == dv.JOB_BAD_STATE
    s.cleanup()


def dump_bytes(rec, va, n):
    """``n`` bytes at ``va`` in the first dump of ``rec`` that holds it."""
    d = next(d for d in rec.dumps if d.gpu_va <= va < d.gpu_va + d.raw_len)
    return inflate(d.payload, d.raw_len)[va - d.gpu_va:][:n]


def overwrite(rec, va, data):
    """``rec`` with ``data`` written at ``va`` in its first dump that holds it."""
    d = next(d for d in rec.dumps if d.gpu_va <= va < d.gpu_va + d.raw_len)
    raw = bytearray(inflate(d.payload, d.raw_len))
    raw[va - d.gpu_va:va - d.gpu_va + len(data)] = data
    new = dataclasses.replace(d, payload=deflate(bytes(raw)))
    return dataclasses.replace(rec, dumps=tuple(new if x is d else x for x in rec.dumps))


def test_a_self_linked_job_chain_runs_out_of_one_step_budget():
    # a job of 63,002 instructions whose descriptor links to itself: each
    # pass fits a budget of 65,536, so only a budget over the whole chain
    # ends the kick before CHAIN_MAX_JOBS passes
    g = build_graph([("vec_add",)], 32)
    rec = record_graph(g).recordings[0]
    head = next(a.value for a in rec.actions
                if isinstance(a, RegWrite) and a.reg_name == "JOB_HEAD_LO")
    shader_va = int.from_bytes(dump_bytes(rec, head + 4, 4), "little")
    a = Asm()
    a.ldi(1, 21000)
    a.label("loop")
    a.add(2, 2, 1)  # reads the counter: the loop runs compiled, not in bulk
    a.addi(1, 1, -1)
    a.bnz(1, "loop")
    a.halt()
    code = b"".join(w.to_bytes(4, "little") for w in a.assemble())
    rec = overwrite(overwrite(rec, shader_va, code), head, head.to_bytes(4, "little"))
    assert verify(rec).ok

    def timeout(*_):
        raise TimeoutError("replay still running the chain")
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with mock.patch.object(dv, "SHADER_STEP_BUDGET", 1 << 16):
            result = replay_once(rec, random_input(g, 1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert not result.ok and result.divergence.kind is DivergenceKind.TIMEOUT
    # the chain ran out of steps: the device latched the bad-state status
    assert result.divergence.detail.endswith(f"; job status {dv.JOB_BAD_STATE} (bad state)")


def test_an_interrupt_left_raised_is_an_irq_mismatch():
    # without the clear after the reset, RESET_DONE is still raised at the
    # first interrupt wait, which expects JOB_DONE alone
    g = build_graph([("vec_add",)], 16)
    rec = record_graph(g).recordings[0]
    i = next(i for i, a in enumerate(rec.actions)
             if isinstance(a, RegWrite) and a.reg_name == "GPU_IRQ_CLEAR")
    rec = dataclasses.replace(rec, actions=rec.actions[:i] + rec.actions[i + 1:])
    assert verify(rec).ok
    result = replay_once(rec, random_input(g, 1))
    wait = next(i for i, a in enumerate(rec.actions) if isinstance(a, WaitIrq))
    report = result.divergence
    assert (report.kind, report.action_index, report.expected, report.got) == (
        DivergenceKind.IRQ_MISMATCH, wait, dv.IRQ_JOB_DONE, dv.IRQ_RESET_DONE)


def stall_at_kick(session, kick, ns=50_000_000):
    """Stall the device once, right after the ``kick``-th JOB_START write
    (counting from 0) of the session's next replay."""
    state = {"kicks": 0, "armed": True}

    def post(sess, idx, action):
        if state["armed"] and isinstance(action, RegWrite) and action.reg_name == "JOB_START":
            if state["kicks"] == kick:
                sess.dev.stall(ns)
                state["armed"] = False
            state["kicks"] += 1
    session.post_action_hook = post


def test_timeout_divergence_from_stall(vecadd):
    g, rec = vecadd
    s = session_for(rec)
    stall_at_kick(s, 0)  # blow through the 1 ms watchdog floor
    result = s.replay(i32s([5, 5, 5, 5, 1, 1, 1, 1]))
    assert [d.kind for d in s.divergence_log] == [DivergenceKind.TIMEOUT]
    assert result.ok and result.recovery_attempts == 1
    assert unpack32(result.outputs[0]) == [6, 6, 6, 6]
    s.cleanup()


def test_recover_reports_the_virtual_time_its_attempts_took(vecadd):
    # vclock_ns counts the reload its retry runs, but not the reload before
    # a second replay, which only undoes the first
    g, rec = vecadd
    s = session_for(rec)
    inp = i32s([5, 5, 5, 5, 1, 1, 1, 1])
    stall_at_kick(s, 0)
    start = s.vclock_consumed
    result = s.replay(inp)
    assert result.ok and result.recovery_attempts == 1
    assert result.vclock_ns == s.vclock_consumed - start > 0
    s.post_action_hook = None
    start = s.vclock_consumed
    again = s.replay(inp)
    assert again.ok and again.recovery_attempts == 0
    reload_ns = 3 * replayer.NANO_ACCESS_NS  # the reset sequence's three accesses
    assert again.vclock_ns == s.vclock_consumed - start - reload_ns > 0
    s.cleanup()


def test_mmu_fault_divergence_and_recovery(vecadd):
    g, rec = vecadd
    s = session_for(rec)
    in_va = rec.inputs()[0].gpu_va
    s.attempt_hook = lambda dev, attempt: dev.corrupt_pte(in_va) if attempt == 0 else None
    r = s.replay(i32s([9, 9, 9, 9, 1, 1, 1, 1]))
    assert r.ok and r.recovery_attempts == 1
    assert unpack32(r.outputs[0]) == [10, 10, 10, 10]
    s.cleanup()


def test_persistent_fault_exhausts_exactly_four_attempts(vecadd):
    _, rec = vecadd
    s = session_for(rec)
    in_va = rec.inputs()[0].gpu_va
    calls = []

    def hook(dev, attempt):
        calls.append(attempt)
        dev.corrupt_pte(in_va)

    s.attempt_hook = hook
    r = s.replay(i32s([0] * 8))
    assert not r.ok
    assert r.recovery_attempts == 4
    assert calls == [0, 1, 2, 3, 4]
    assert r.divergence.kind is DivergenceKind.MMU_FAULT
    assert r.divergence.origin.startswith(rec.header.workload_label)
    s.cleanup()


def test_a_ladder_that_raises_leaves_no_window_behind(vecadd):
    # the next replay of the session must not run paced and measuring as
    # a retry because a hook raised mid-ladder
    _, rec = vecadd
    s = session_for(rec)
    in_va = rec.inputs()[0].gpu_va

    def hook(dev, attempt):
        dev.corrupt_pte(in_va)
        if attempt == 2:
            raise RuntimeError("hook failed")

    s.attempt_hook = hook
    with pytest.raises(RuntimeError):
        s.replay(i32s([0] * 8))
    assert s._window == (0, 1, False)
    s.cleanup()


def test_underclocked_replay_recovers_via_delay_injection(vecadd):
    g, rec = vecadd
    s = session_for(rec, clock_div=8, env_seed=6)
    inp = i32s([2, 4, 6, 8, 1, 3, 5, 7])
    r = s.replay(inp)
    assert r.ok
    assert 1 <= r.recovery_attempts <= 4
    assert r.outputs[0] == g.evaluate(inp)
    s.cleanup()


@pytest.mark.parametrize("clock_div", [4, 8])
def test_underclocked_multi_job_replay_recovers(mixed, clock_div):
    # each retry must slow every job from its window on, or the job after
    # the failing one times out in turn
    g, rec = mixed
    for env_seed in range(8):
        s = session_for(rec, clock_div=clock_div, env_seed=env_seed)
        inp = random_input(g, env_seed)
        r = s.replay(inp)
        assert r.ok and 2 <= r.recovery_attempts <= 3, (env_seed, r.divergence)
        assert r.outputs == [g.evaluate(inp)]
        s.cleanup()


@pytest.mark.parametrize("clock_div", [16, 32])
def test_recovery_climbs_from_the_measured_slowdown(mixed, clock_div):
    # doubling from 1 reaches only 8x by the fourth attempt; the retry that
    # times out measures how much slower the device runs instead
    g, rec = mixed
    for env_seed in range(8):
        s = session_for(rec, clock_div=clock_div, env_seed=env_seed)
        inp = random_input(g, env_seed)
        r = s.replay(inp)
        assert r.ok and r.recovery_attempts <= MAX_ATTEMPTS, (env_seed, r.divergence)
        assert r.outputs == [g.evaluate(inp)]
        s.cleanup()


def test_the_measured_slowdown_reaches_the_report_and_the_ladder(graphs, recorded):
    # a retried wait that times out waits on and reports how many times
    # slower than recorded the device ran; the next attempt's multiplier
    # starts at the power of two at or above that. The first attempt and
    # the last measure nothing: no next attempt would use it
    g, rec = graphs["mixed3"], recorded["mixed3"]

    def replay(s, inp):
        mults = [None]  # attempt -> window multiplier; attempt 0 has none
        s.attempt_hook = lambda dev, attempt: attempt and mults.append(s._window[1])
        return s.replay(inp), mults, s.divergence_log

    for env_seed in range(8):
        s = session_for(rec, clock_div=16, env_seed=env_seed)
        inp = random_input(g, env_seed)
        r, mults, log = replay(s, inp)
        assert r.ok and r.outputs == [g.evaluate(inp)], env_seed
        assert len(log) == r.recovery_attempts >= 2  # one report per failed attempt
        assert log[0].slowdown == 0.0
        for attempt in range(1, len(log)):
            d = log[attempt]
            assert d.kind is DivergenceKind.TIMEOUT and d.slowdown > 0, (env_seed, d)
            assert mults[attempt + 1] >= replayer._pow2_at_least(d.slowdown), (env_seed, mults)
        s.cleanup()

    # every attempt stalls the first job by three watchdogs of its own
    # window: each retry times out and measures, and the ladder runs out
    kick = next(i for i, a in enumerate(rec.actions)
                if isinstance(a, RegWrite) and a.reg_name == "JOB_START")
    wait = next(a for a in rec.actions[kick:] if isinstance(a, WaitIrq))
    s = session_for(rec)

    def post(sess, idx, action):
        if idx == kick:
            sess.dev.stall(3 * replayer.watchdog_ns(wait, sess._window[1]))

    s.post_action_hook = post
    r, mults, log = replay(s, random_input(g, 1))
    assert not r.ok and r.recovery_attempts == MAX_ATTEMPTS
    assert len(log) == MAX_ATTEMPTS + 1
    assert all(d.kind is DivergenceKind.TIMEOUT for d in log)
    assert log[0].slowdown == 0.0 and log[-1].slowdown == 0.0
    assert r.divergence.slowdown == 0.0
    for attempt in range(1, MAX_ATTEMPTS):
        assert log[attempt].slowdown > 0
        assert mults[attempt + 1] == min(replayer.MAX_PACING_MULT, max(
            2 * mults[attempt], replayer._pow2_at_least(log[attempt].slowdown)))
    s.cleanup()


def test_a_device_that_never_finishes_still_ends_in_a_report(mixed):
    # every kick stalls far past any watchdog: each retry measures up to its
    # cap, finds nothing, and the ladder ends in a report, not a hang
    g, rec = mixed
    s = session_for(rec)
    stall_ns = 10 ** 15

    def post(sess, idx, action):
        if isinstance(action, RegWrite) and action.reg_name == "JOB_START":
            sess.dev.stall(stall_ns)

    s.post_action_hook = post
    r = s.replay(random_input(g, 1))
    assert not r.ok and r.recovery_attempts == MAX_ATTEMPTS
    assert r.divergence.kind is DivergenceKind.TIMEOUT
    assert r.divergence.origin.startswith(rec.header.workload_label)
    assert r.vclock_ns < stall_ns
    s.cleanup()


# -- checkpoint / restore -------------------------------------------------------------------

def test_checkpoint_restore_reruns_identically(mixed):
    g, rec = mixed
    inp = random_input(g, 5)
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    s.write_inputs(inp)
    while s.jobs_done < 2:
        assert s.step() is None
    cp = s.last_checkpoint
    while s.cursor < len(rec.actions):
        assert s.step() is None
    out_desc = rec.outputs()[0]
    first = s._read_va(out_desc.gpu_va, out_desc.len_bytes)
    s.restore(cp)
    while s.cursor < len(rec.actions):
        assert s.step() is None
    assert s._read_va(out_desc.gpu_va, out_desc.len_bytes) == first == g.evaluate(inp)
    s.cleanup()


def session_ram(s):
    """The bytes of every session page, page tables included."""
    return s.dev.mem_read(dv.PAGE_SIZE, s._free_pa - dv.PAGE_SIZE)


def full_copy(s):
    """What a checkpoint must hold, read afresh: every session page,
    the byte count (live ranges plus table pages) and the unmapped ranges."""
    live = sum(pages for va, (pages, *_) in s._ranges.items() if va not in s._unmapped)
    nbytes = dv.PAGE_SIZE * (live + 1 + len(s._l2_pages))
    return session_ram(s), nbytes, frozenset(s._unmapped)


def held(s, cp):
    """The same as ``cp`` holds it: its pages over the load-time image."""
    ram = b"".join(cp.pages.get(ppn) or s._image.get(ppn, bytes(dv.PAGE_SIZE))
                   for ppn in range(1, s._free_pa >> dv.PAGE_SHIFT))
    return ram, cp.byte_count, cp.unmapped


ckpt_ops = st.lists(st.one_of(
    st.just(("job",)),
    st.tuples(st.just("write"), st.integers(0, 9), st.integers(0, 3 * dv.PAGE_SIZE),
              st.binary(min_size=1, max_size=64)),
    st.tuples(st.sampled_from(("unmap", "remap", "corrupt")), st.integers(0, 9)),
    st.just(("checkpoint",)),
    st.tuples(st.just("restore"), st.integers(0, 99)),
    st.just(("reload",)),
), max_size=24)


@settings(max_examples=300, deadline=None)
@given(ops=ckpt_ops)
def test_incremental_checkpoints_and_restores_match_full_ones(mixed, ops):
    g, rec = mixed
    page = dv.PAGE_SIZE
    perm = next(a for a in rec.actions if isinstance(a, MapGpuMem)).perm_flags_encoded
    extra = (  # two ranges no job touches, edge to edge
        MapGpuMem(0, 0, 0x0100_0000, 2 * page, perm),
        MapGpuMem(0, 0, 0x0100_2000, 2 * page, perm),
    )
    extended = dataclasses.replace(rec, actions=rec.actions + extra)
    config = ReplayConfig(checkpoint_every_jobs=1)
    s = session_for(extended, config=config)
    # what every reload must put back: a fresh load on an identical device
    loaded = session_ram(session_for(extended, config=config))
    s.write_inputs(random_input(g, 3))
    # the extra ranges first, so that low indices pick them and ops collide
    ranges = sorted(s._ranges, key=lambda va: va < extra[0].gpu_va)
    data_ranges = [va for va in ranges  # host writes to code could hang a job
                   if dv.Perm.EXEC not in dv.SKU_A.decode_perms(s._ranges[va][2])]
    last = s.checkpoint()
    cps = [last]
    assert held(s, last) == full_copy(s)
    for op in ops:
        if op[0] == "job":
            jobs = s.jobs_done
            while s.cursor < len(s.loaded.actions) and s.jobs_done == jobs:
                if s.step() is not None:
                    break  # stays mid-job until a restore or reload
        elif op[0] == "write":
            va = data_ranges[op[1] % len(data_ranges)]
            span = s._ranges[va][0] * page
            s._write_va(va + op[2] % (span - len(op[3]) + 1), op[3])
        elif op[0] == "unmap":
            va = ranges[op[1] % len(ranges)]
            s._step_unmap(UnmapGpuMem(0, 0, va, page), 1)
        elif op[0] == "remap":
            va = ranges[op[1] % len(ranges)]
            s._step_map(MapGpuMem(0, 0, va, page, s._ranges[va][2]), 1)
        elif op[0] == "corrupt":
            s.dev.corrupt_pte(ranges[op[1] % len(ranges)])
        elif op[0] == "checkpoint" and s._at_job_boundary:
            s.checkpoint()
        elif op[0] == "restore":
            k = op[1] % len(cps)
            s.restore(cps[k])
            assert full_copy(s) == held(s, cps[k])
            incremental = s.dev.mem_read(0, s._free_pa + page)
            cps[k] = dataclasses.replace(cps[k])  # not the log's base: the full path
            s.restore(cps[k])
            assert s.dev.mem_read(0, s._free_pa + page) == incremental
        elif op[0] == "reload":
            s._reload()
            assert session_ram(s) == loaded
        if s.last_checkpoint is not last:
            last = s.last_checkpoint
            assert held(s, last) == full_copy(s)
            cps.append(last)
    s.cleanup()


def test_first_checkpoint_after_a_reload_matches_a_full_copy(mixed):
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    assert s.replay(random_input(g, 1)).ok
    s._reload()
    s.write_inputs(random_input(g, 2))
    s._write_va(rec.outputs()[0].gpu_va + 6, b"\xAB" * 9)
    s.dev.corrupt_pte(rec.outputs()[0].gpu_va)  # no job reads it before the checkpoint
    while s.jobs_done < 1:
        assert s.step() is None
    assert s.last_checkpoint.action_index == s.cursor
    assert held(s, s.last_checkpoint) == full_copy(s)
    s.cleanup()


def test_checkpoint_byte_count_matches_a_recount(mixed):
    # the running count of live bytes gives every checkpoint what a
    # recount from scratch (live ranges plus table pages) gives, through a
    # double unmap, a remap after an unmap and restores between them
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    page = dv.PAGE_SIZE
    va, other = list(s._ranges)[:2]

    def unmap(at):
        s._step_unmap(UnmapGpuMem(0, 0, at, page), 1)

    def remap(at):
        s._step_map(MapGpuMem(0, 0, at, page, s._ranges[at][2]), 1)

    def checked(cp):
        assert held(s, cp)[1:] == full_copy(s)[1:]
        return cp

    whole = checked(s.checkpoint())
    unmap(va)
    unmap(va)
    twice = checked(s.checkpoint())
    assert twice.byte_count == whole.byte_count - page * s._ranges[va][0]
    remap(va)
    assert checked(s.checkpoint()).byte_count == whole.byte_count
    unmap(other)
    s.restore(twice)
    checked(s.checkpoint())
    remap(va)
    unmap(other)
    unmap(other)
    checked(s.checkpoint())
    s.restore(whole)
    s.write_inputs(random_input(g, 7))
    last, taken = s.last_checkpoint, 0
    while s.cursor < len(rec.actions):  # the recording's own unmaps, one checkpoint a job
        assert s.step() is None
        if s.last_checkpoint is not last:
            last, taken = checked(s.last_checkpoint), taken + 1
    assert taken == rec.job_count() and any(isinstance(a, UnmapGpuMem) for a in rec.actions)
    s.cleanup()


def test_per_job_checkpoints_copy_no_rng_state(mixed):
    # the device keeps its RNG position as a base state and a count of
    # words drawn since, so a checkpoint does not copy the generator state
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    with mock.patch.object(random.Random, "getstate", autospec=True,
                           side_effect=random.Random.getstate) as getstate, \
            mock.patch.object(ReplaySession, "checkpoint", autospec=True,
                              side_effect=ReplaySession.checkpoint) as checkpoint:
        for seed in range(8):
            inp = random_input(g, seed)
            assert s.replay(inp).outputs == [g.evaluate(inp)]
    assert checkpoint.call_count == 8 * rec.job_count()
    assert getstate.call_count * 8 <= checkpoint.call_count, getstate.call_count
    s.cleanup()


def test_a_session_keeps_its_state_in_slots(mixed):
    # from the 30th instance attribute on, CPython 3.11 reads every
    # attribute of an instance with a __dict__ more slowly (measured:
    # chain-64 replay 5% slower at 30). Slots have no such edge, and a
    # replay that recovers sets no attribute outside them
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    armed = [True]

    def post(sess, idx, action):
        if (armed[0] and sess.jobs_done == 1 and isinstance(action, RegWrite)
                and action.reg_name == "JOB_START"):
            armed[0] = False
            sess.dev.stall(20_000_000)

    s.post_action_hook = post
    inp = random_input(g, 4)
    r = s.replay(inp)
    assert r.ok and r.recovery_attempts == 1 and r.outputs == [g.evaluate(inp)]
    assert not hasattr(s, "__dict__"), sorted(vars(s))
    s.cleanup()


def test_the_divergence_log_holds_one_replay(mixed):
    # each replay starts a fresh log, as it does the event log: a
    # long-lived session does not keep one report per recovered replay
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))

    def post(sess, idx, action):
        if (sess.jobs_done == 1 and isinstance(action, RegWrite)
                and action.reg_name == "JOB_START" and not sess.divergence_log):
            sess.dev.stall(20_000_000)

    s.post_action_hook = post
    for seed in range(3):
        inp = random_input(g, seed)
        r = s.replay(inp)
        assert r.ok and r.recovery_attempts == 1 and r.outputs == [g.evaluate(inp)]
        assert [d.kind for d in s.divergence_log] == [DivergenceKind.TIMEOUT]
    s.cleanup()


def test_every_action_type_has_exactly_one_handler(vecadd):
    handlers = replayer._HANDLERS
    assert set(handlers) == {schema.cls for schema in ACTION_SCHEMAS}
    assert len(set(handlers.values())) == len(handlers)

    @dataclasses.dataclass(frozen=True)
    class Unlisted(RegWrite):  # a new action type no handler names
        pass

    s = session_for(vecadd[1])
    s.loaded = dataclasses.replace(s.loaded, actions=(Unlisted(0, 0, "GPU_IRQ_MASK", 0),))
    with pytest.raises(ReplayError, match="unknown action"):
        s.step()
    s.cleanup()


def test_checkpoint_needs_job_boundary(vecadd):
    _, rec = vecadd
    s = session_for(rec)
    s.write_inputs(i32s([0] * 8))
    kick = next(i for i, a in enumerate(rec.actions)
                if isinstance(a, RegWrite) and a.reg_name == "JOB_START")
    while s.cursor <= kick:
        s.step()
    with pytest.raises(ReplayError):
        s.checkpoint()
    s.cleanup()


def test_restore_rejects_foreign_checkpoint(vecadd, mixed):
    _, rec1 = vecadd
    _, rec2 = mixed
    s1 = session_for(rec1, config=ReplayConfig(checkpoint_every_jobs=1))
    cp = s1.checkpoint()
    s2 = init(Device(env_seed=9))
    s2.load(rec2)
    with pytest.raises(ReplayError):
        s2.restore(cp)
    s1.cleanup()
    s2.cleanup()


def test_checkpoint_cost_charged_to_vclock(mixed):
    g, rec = mixed
    inp = random_input(g, 6)
    plain = replay_once(rec, inp, env_seed=2)
    ck = replay_once(rec, inp, env_seed=2,
                     config=ReplayConfig(checkpoint_every_jobs=1))
    assert ck.ok and plain.ok
    assert ck.vclock_ns > plain.vclock_ns


def test_recovery_resumes_from_checkpoint(mixed):
    g, rec = mixed
    inp = random_input(g, 8)
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    stall_at_kick(s, 2)  # the third job
    with mock.patch.object(ReplaySession, "restore", autospec=True,
                           side_effect=ReplaySession.restore) as restore, \
            mock.patch.object(ReplaySession, "_reload", autospec=True,
                              side_effect=ReplaySession._reload) as reload:
        r = s.replay(inp)
    assert r.ok and r.recovery_attempts == 1
    assert r.outputs == [g.evaluate(inp)]
    # the retry resumed after the second job instead of reloading
    [(_, cp)] = [c.args for c in restore.call_args_list]
    assert cp.jobs_done == 2 and cp.action_index > 0
    assert reload.call_count == 0
    s.cleanup()


def test_recovery_never_resumes_a_previous_replay(mixed):
    # the second replay stalls in its first job, before its own first
    # checkpoint: it recovers from the start, on its own input
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    first, second = random_input(g, 1), random_input(g, 2)
    assert s.replay(first).outputs == [g.evaluate(first)]
    armed = [True]

    def post(sess, idx, action):
        if armed[0] and isinstance(action, RegWrite) and action.reg_name == "JOB_START":
            armed[0] = False
            sess.dev.stall(20_000_000)

    s.post_action_hook = post
    r = s.replay(second)
    assert r.ok and r.recovery_attempts == 1
    assert r.outputs == [g.evaluate(second)]
    s.cleanup()


# -- preemption ---------------------------------------------------------------------------

def test_preempt_between_steps_is_fast_and_clean(mixed):
    g, rec = mixed
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    s.write_inputs(random_input(g, 4))
    while s.jobs_done < 1:
        s.step()
    ack = s.preempt()
    assert ack.delay_ns < 1_000_000
    # device equals a freshly reset one (modulo clock position)
    fresh = Device(env_seed=0)
    fresh.reg_write(0x14, dv.CMD_SOFT_RESET)
    fresh.reg_write(0x0C, dv.IRQ_RESET_DONE)
    for off in (0x04, 0x08, 0x10, 0x20, 0x30, 0x34, 0x40):
        assert s.dev.reg_read(off) == fresh.reg_read(off), hex(off)
    s.cleanup()


def test_preempt_request_interrupts_replay_loop(mixed):
    g, rec = mixed
    s = session_for(rec)
    jobs = rec.job_count()

    def post(sess, idx, action):
        if isinstance(action, WaitIrq) and sess.jobs_done == 0:
            sess.request_preempt()

    s.post_action_hook = post
    r = s.replay(random_input(g, 11))
    assert r.preempted and not r.ok
    assert r.preempt_ack is not None
    s.cleanup()


def test_preempt_resume_from_checkpoint_runs_remaining_jobs(mixed):
    g, rec = mixed
    inp = random_input(g, 12)
    s = session_for(rec, config=ReplayConfig(checkpoint_every_jobs=1))
    s.write_inputs(inp)
    while s.jobs_done < 2:
        s.step()
    s.preempt()
    cp = s.last_checkpoint
    jobs_at_cp = cp.jobs_done
    s.restore(cp)
    steps = 0
    while s.cursor < len(rec.actions):
        assert s.step() is None
        steps += 1
    assert s.jobs_done == rec.job_count()
    out = s._read_va(rec.outputs()[0].gpu_va, rec.outputs()[0].len_bytes)
    assert out == g.evaluate(inp)
    s.cleanup()


def test_forced_replay_still_bounds_checks_registers(vecadd):
    # defense in depth: --force skips verification, yet the nano driver
    # refuses to touch anything outside its register map
    _, rec = vecadd
    evil = dataclasses.replace(
        rec, actions=(RegWrite(0, 0, "DBG_BACKDOOR", 1),) + rec.actions)
    s = init(Device(), ReplayConfig(force=True))
    s.load(evil)
    with pytest.raises(ReplayError):
        s.replay(i32s([0] * 8))
    s.cleanup()


def test_forced_replay_write_to_read_only_rejected(vecadd):
    _, rec = vecadd
    evil = dataclasses.replace(
        rec, actions=(RegWrite(0, 0, "GPU_ID", 7),) + rec.actions)
    s = init(Device(), ReplayConfig(force=True))
    s.load(evil)
    with pytest.raises(ReplayError):
        s.replay(i32s([0] * 8))
    s.cleanup()


def test_preempt_request_from_another_thread(mixed):
    import threading

    g, rec = mixed
    s = session_for(rec)
    reached = threading.Event()
    go = threading.Event()

    def post(sess, idx, action):
        if idx == 10 and not reached.is_set():
            reached.set()
            go.wait(timeout=5)

    s.post_action_hook = post
    results = {}

    def run():
        results["r"] = s.replay(random_input(g, 13))

    t = threading.Thread(target=run)
    t.start()
    assert reached.wait(timeout=5)
    s.request_preempt()   # published via the flag, honored at a boundary
    go.set()
    t.join(timeout=10)
    assert results["r"].preempted and results["r"].preempt_ack is not None
    s.cleanup()


# -- sequences ---------------------------------------------------------------------------

def test_sequence_stitches_outputs_to_inputs():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 16)
    from gprr.actions import Granularity
    h = RecordHarness(granularity=Granularity.PER_LAYER)
    recs = record_graph(g, harness=h).recordings
    inp = random_input(g, 21)
    s = init(Device(env_seed=30))
    seq = replay_sequence(s, recs, inp)
    assert seq.ok
    assert seq.outputs[0] == g.evaluate(inp)
    assert seq.vclock_ns == sum(r.vclock_ns for r in seq.results)
    s.cleanup()
