"""Static verifier: rule catalogue, peak-memory accounting, clean bills for
recorder output."""

import dataclasses
import hashlib
import json
import random
import time

from hypothesis import given, settings, strategies as st

import gprr.device as dv
from gprr.actions import (Granularity, IoDescriptor, IoMode, IoRole,
                          LoadMemDump, MapGpuMem, MemDump, Recording,
                          RecordingHeader, RegRead, RegWrite, UnmapGpuMem,
                          WaitIrq, DumpOrigin, ActionClass)
from gprr.device import DEFAULT_REGISTER_MAP
from gprr.recfmt import decode, deflate, encode
from gprr.recorder import RecordHarness
from gprr.refstack import build_graph
from gprr.verifier import verify

from conftest import builtin_graphs, chain_graph, record_graph

MAP_HASH = DEFAULT_REGISTER_MAP.digest()


def make_rec(actions, dumps=(), io=()):
    h = RecordingHeader(0x0B31, MAP_HASH, 0, Granularity.MONOLITHIC, "fix")
    return Recording(h, tuple(actions), tuple(dumps), tuple(io))


def rules_of(report):
    return [v.rule for v in report.violations]


def test_unknown_register_is_r1():
    rec = make_rec([RegWrite(0, 0, "DBG_BACKDOOR", 1)])
    report = verify(rec)
    assert rules_of(report) == ["R1"]
    assert report.violations[0].action_index == 0
    assert not report.ok


def test_access_direction_is_r2():
    rec = make_rec([RegWrite(0, 0, "GPU_ID", 1),
                    RegRead(0, 0, "GPU_IRQ_CLEAR", 0, ActionClass.STATE)])
    assert rules_of(verify(rec)) == ["R2", "R2"]


def test_peak_memory_fixture_is_20480():
    rec = make_rec([
        MapGpuMem(0, 0, 0x400000, 3 * 4096, 0b0011),
        MapGpuMem(0, 0, 0x500000, 2 * 4096, 0b0011),
        UnmapGpuMem(0, 0, 0x400000, 3 * 4096),
    ])
    assert verify(rec).peak_gpu_mem_bytes == 20480


def test_budget_breach_is_r3():
    rec = make_rec([
        MapGpuMem(0, 0, 0x400000, 3 * 4096, 0b0011),
        MapGpuMem(0, 0, 0x500000, 2 * 4096, 0b0011),
        UnmapGpuMem(0, 0, 0x400000, 3 * 4096),
    ])
    report = verify(rec, mem_budget_bytes=16384)
    assert "R3" in rules_of(report)
    assert verify(rec, mem_budget_bytes=20480).ok


def test_dump_outside_mapping_is_r4():
    dump = MemDump(0, 0x600000, 4096, deflate(bytes(4096)), DumpOrigin.MAPPED_FALLBACK)
    rec = make_rec([LoadMemDump(0, 0, 0, 0x600000)], dumps=[dump])
    assert rules_of(verify(rec)) == ["R4"]
    # mapped after the load does not help: order matters
    rec = make_rec([LoadMemDump(0, 0, 0, 0x600000),
                    MapGpuMem(0, 0, 0x600000, 4096, 0b0011)], dumps=[dump])
    assert "R4" in rules_of(verify(rec))
    # properly mapped first: clean
    rec = make_rec([MapGpuMem(0, 0, 0x600000, 4096, 0b0011),
                    LoadMemDump(0, 0, 0, 0x600000)], dumps=[dump])
    assert verify(rec).ok


def test_a_dump_loaded_away_from_its_own_address_is_r4():
    # a vec_add recording whose dumps all claim another address: before,
    # nothing read a dump's own gpu_va, and it verified clean
    rec = record_graph(build_graph([("vec_add",)], 16)).recordings[0]
    moved = decode(encode(dataclasses.replace(rec, dumps=tuple(
        dataclasses.replace(d, gpu_va=0xDEAD123) for d in rec.dumps))))
    report = verify(moved)
    loads = [i for i, a in enumerate(moved.actions) if isinstance(a, LoadMemDump)]
    assert len(loads) == len(rec.dumps) == 3
    assert [(v.rule, v.action_index) for v in report.violations] == [("R4", i) for i in loads]
    assert "is for 0xdead123" in report.violations[0].message
    assert verify(rec).ok


def test_missing_dump_id_is_r4():
    rec = make_rec([MapGpuMem(0, 0, 0x600000, 4096, 0b0011),
                    LoadMemDump(0, 0, 5, 0x600000)])
    assert rules_of(verify(rec)) == ["R4"]


def test_ranges_are_each_base_at_its_largest_map_in_first_map_order():
    rec = make_rec([
        MapGpuMem(0, 0, 0x500000, 4096, 0b0011),
        MapGpuMem(0, 0, 0x400000, 3 * 4096, 0b0011),
        UnmapGpuMem(0, 0, 0x500000, 4096),
        MapGpuMem(0, 0, 0x500000, 2 * 4096 + 1, 0b0011),
    ])
    report = verify(rec)
    assert list(report.ranges.items()) == [(0x500000, (3, 0)), (0x400000, (3, 1))]
    # not part of the report's value or its JSON
    assert report == dataclasses.replace(report, ranges={})
    assert "ranges" not in json.loads(report.to_json())


def test_io_outside_any_mapping_is_r4():
    rec = make_rec([MapGpuMem(0, 0, 0x400000, 4096, 0b0011)],
                   io=[IoDescriptor(IoRole.INPUT, 0x900000, 64, IoMode.BY_ADDRESS)])
    report = verify(rec)
    assert rules_of(report) == ["R4"]
    assert report.violations[0].action_index == -1


def test_unmap_before_map_is_r5():
    rec = make_rec([UnmapGpuMem(0, 0, 0x400000, 4096)])
    assert rules_of(verify(rec)) == ["R5"]


def test_wait_without_cause_is_r6():
    rec = make_rec([WaitIrq(0, 0, dv.IRQ_JOB_DONE, 100)])
    assert rules_of(verify(rec)) == ["R6"]
    rec = make_rec([RegWrite(0, 0, "JOB_START", 1),
                    WaitIrq(0, 0, dv.IRQ_JOB_DONE, 100)])
    assert verify(rec).ok
    rec = make_rec([WaitIrq(0, 0, dv.IRQ_RESET_DONE, 100)])
    assert rules_of(verify(rec)) == ["R6"]


def test_overlapping_ranges_are_r7():
    page = 4096
    rec = make_rec([
        MapGpuMem(0, 0, 0x400000, page, 0b0011),
        MapGpuMem(0, 0, 0x401000, 2 * page, 0b0011),
        UnmapGpuMem(0, 0, 0x400000, page),
        MapGpuMem(0, 0, 0x3FF000, 3 * page, 0b0011),  # over both, though later
        MapGpuMem(0, 0, 0x400000, page, 0b0011),  # the same base again
        MapGpuMem(0, 0, 0x403000, 1, 0b0011),  # adjacent
    ])
    report = verify(rec)
    assert rules_of(report) == ["R7", "R7"]
    assert [v.action_index for v in report.violations] == [3, 3]
    assert "0x400000+0x1000 overlaps range 0x3ff000+0x3000" in report.violations[0].message


def test_unaligned_range_is_r8():
    rec = make_rec([
        MapGpuMem(0, 0, 0x400000, 4096, 0b0011),
        MapGpuMem(0, 0, 0x500800, 4096, 0b0011),
    ])
    report = verify(rec)
    assert rules_of(report) == ["R8"]
    assert report.violations[0].action_index == 1


def test_r7_check_scales_with_a_sort():
    # 20,000 ranges nested in one: checked pairwise, 2e8 comparisons
    n = 20_000
    rec = make_rec([MapGpuMem(0, 0, 0x100000, n * 4096, 0b0011)]
                   + [MapGpuMem(0, 0, 0x100000 + i * 4096, 1, 0b0011) for i in range(1, n)])
    t0 = time.perf_counter()
    report = verify(rec, mem_budget_bytes=2 * n * 4096)
    assert time.perf_counter() - t0 < 10
    assert rules_of(report) == ["R7"] * (n - 1)


def test_dump_checks_scale_with_a_bisect():
    # N one-page ranges, then a dump load into each: a scan of the live
    # ranges per load took 4-8 s at N = 8,000
    n = 8_000
    rec = record_graph(build_graph([("vec_add",)], 16)).recordings[0]
    first_id = max(d.dump_id for d in rec.dumps) + 1
    payload = deflate(bytes(4096))
    vas = [0x4000_0000 + 2 * i * 4096 for i in range(n)]
    dumps = tuple(MemDump(first_id + i, va, 4096, payload, DumpOrigin.MAPPED_FALLBACK)
                  for i, va in enumerate(vas))
    rec = dataclasses.replace(
        rec, dumps=rec.dumps + dumps,
        actions=rec.actions + tuple(MapGpuMem(0, 0, va, 4096, 0b0011) for va in vas)
        + tuple(LoadMemDump(0, 0, d.dump_id, d.gpu_va) for d in dumps))
    t0 = time.perf_counter()
    report = verify(rec, mem_budget_bytes=dv.MEM_BYTES + n * 4096)
    assert time.perf_counter() - t0 <= 1
    assert report.ok, report.violations[:3]


def scanned_r4(rec):
    """R4 findings of a scan over every range, for ranges in any layout."""
    def covered(spans, va, n):
        return any(base <= va and va + n <= base + pages * 4096
                   for base, pages in spans.items())

    dumps = {d.dump_id: d for d in rec.dumps}
    live, ever, found = {}, {}, []
    for i, a in enumerate(rec.actions):
        if isinstance(a, MapGpuMem):
            live[a.gpu_va] = max(1, -(-a.len_bytes // 4096))
            ever[a.gpu_va] = max(ever.get(a.gpu_va, 0), live[a.gpu_va])
        elif isinstance(a, UnmapGpuMem):
            live.pop(a.gpu_va, None)
        elif isinstance(a, LoadMemDump) and (
                dumps[a.dump_id].gpu_va != a.gpu_va
                or not covered(live, a.gpu_va, dumps[a.dump_id].raw_len)):
            found.append(i)
    return found + [-1 for io in rec.io_table
                    if not covered(ever, io.gpu_va, io.len_bytes)]


slot_va = st.builds(lambda slot, off: 0x400000 + slot * 2 * 4096 + off,
                    st.integers(0, 5), st.sampled_from((0, 1, 4095, 4096, 8000)))
range_ops = st.lists(st.one_of(
    st.builds(lambda slot, n: MapGpuMem(0, 0, 0x400000 + slot * 2 * 4096, n, 0b0011),
              st.integers(0, 5), st.sampled_from((1, 4096, 4097, 8192, 8193))),
    st.builds(lambda slot: UnmapGpuMem(0, 0, 0x400000 + slot * 2 * 4096, 4096),
              st.integers(0, 5)),
    st.builds(lambda k, va: LoadMemDump(0, 0, k, va), st.integers(0, 2), slot_va),
), max_size=30)


@settings(max_examples=300, deadline=None)
@given(actions=range_ops, io_at=st.lists(st.tuples(slot_va, st.sampled_from((4, 4096, 6000))),
                                         max_size=3))
def test_dump_checks_match_a_scan_wherever_r7_passes(actions, io_at):
    # each dump is for where its first load puts it; a later load of it
    # elsewhere is R4
    dump_va = {}
    for a in actions:
        if isinstance(a, LoadMemDump):
            dump_va.setdefault(a.dump_id, a.gpu_va)
    dumps = [MemDump(k, dump_va.get(k, 0), n, deflate(bytes(n)), DumpOrigin.MAPPED_FALLBACK)
             for k, n in enumerate((4, 4096, 5000))]
    io = [IoDescriptor(IoRole.INPUT, va, n, IoMode.BY_ADDRESS) for va, n in io_at]
    rec = make_rec(actions, dumps, io)
    report = verify(rec)
    found = [v.action_index for v in report.violations if v.rule == "R4"]
    if "R7" in rules_of(report):
        assert not report.ok
    else:
        assert found == scanned_r4(rec)


def test_no_maps_means_zero_peak():
    assert verify(make_rec([RegWrite(0, 0, "GPU_CMD", 1)])).peak_gpu_mem_bytes == 0


def test_verification_is_pure():
    rec = make_rec([MapGpuMem(0, 0, 0x400000, 4096, 0b0011)])
    before = rec.actions
    verify(rec)
    assert rec.actions == before


def test_recorder_output_verifies_clean():
    for name, g in builtin_graphs().items():
        rec = record_graph(g).recordings[0]
        report = verify(rec)
        assert report.ok, f"{name}: {report.violations}"
        assert report.peak_gpu_mem_bytes <= dv.MEM_BYTES


def test_matmul_peak_covers_known_allocations():
    g = builtin_graphs()["matmul8"]
    rec = record_graph(g).recordings[0]
    # operands 1 page + output 1 page + scratch 2 pages + shader + descriptor
    report = verify(rec)
    assert report.peak_gpu_mem_bytes >= 6 * 4096


def test_report_formats():
    rec = make_rec([RegWrite(0, 0, "DBG_BACKDOOR", 1)])
    report = verify(rec)
    text = report.to_text()
    assert "R1" in text and "1 violations" in text
    parsed = json.loads(report.to_json())
    assert parsed["ok"] is False
    assert parsed["violations"][0]["rule"] == "R1"
    clean = verify(make_rec([]))
    assert "0 violations" in clean.to_text()


def _mutated(rec, rng):
    """``rec`` with one to three seeded edits of the kinds the rules look
    at: a register name swapped, a range's VA or length shifted, a dump id
    changed, a map or unmap dropped or duplicated, interrupt bits flipped,
    a poll's read count raised or an I/O region moved."""
    actions, io = list(rec.actions), list(rec.io_table)
    names = [r.name for r in DEFAULT_REGISTER_MAP.entries] + ["DBG_BACKDOOR"]
    dump_ids = sorted({d.dump_id for d in rec.dumps}) + [len(rec.dumps) + 7]
    shifts = (-0x10000, -4096, -4, -1, 1, 4, 4096, 0x10000)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        i = rng.randrange(len(actions))
        a = actions[i]
        if kind == 0 and hasattr(a, "reg_name"):
            actions[i] = dataclasses.replace(a, reg_name=rng.choice(names))
        elif kind == 1 and hasattr(a, "gpu_va"):
            what = "len_bytes" if hasattr(a, "len_bytes") and rng.random() < 0.5 else "gpu_va"
            moved = max(0, getattr(a, what) + rng.choice(shifts))
            actions[i] = dataclasses.replace(a, **{what: moved})
        elif kind == 2 and isinstance(a, LoadMemDump):
            actions[i] = dataclasses.replace(a, dump_id=rng.choice(dump_ids))
        elif kind == 3:
            ranged = [j for j, b in enumerate(actions) if isinstance(b, (MapGpuMem, UnmapGpuMem))]
            j = rng.choice(ranged)
            if rng.random() < 0.5:
                del actions[j]
            else:
                actions.insert(rng.randrange(len(actions) + 1), actions[j])
        elif kind == 4 and isinstance(a, WaitIrq):
            actions[i] = dataclasses.replace(a, expect_rawstat=a.expect_rawstat ^ rng.randrange(1, 8))
        elif kind == 5 and hasattr(a, "max_polls"):
            actions[i] = dataclasses.replace(a, max_polls=rng.choice((1, dv.POLL_MAX_READS + 1)))
        elif kind == 6 and io:
            j = rng.randrange(len(io))
            io[j] = dataclasses.replace(io[j], gpu_va=max(0, io[j].gpu_va + rng.choice(shifts)))
    return dataclasses.replace(rec, actions=tuple(actions), io_table=tuple(io))


# SHA-256 of the reports below, three lines each
VERIFY_OUTCOMES_SHA256 = "bedc9c45272488955522c9ba86842f8b79e6cb3e9dd19f79685c61ecd51ce3fb"


def test_verify_outcomes_under_seeded_mutations_are_pinned(recorded):
    """mixed3's recording and a 9-layer chain's, each under 1,500 seeded
    mutations and a budget that is sometimes too small, verify as pinned:
    the same report text, violations in the same order, the same ranges
    and the same dump ids. A faster verifier must find the same things."""
    chain = record_graph(chain_graph(9)).recordings[0]
    rng = random.Random(29)
    lines, rules = [], set()
    for rec in (recorded["mixed3"], chain):
        for _ in range(1500):
            budget = rng.choice((dv.MEM_BYTES, dv.MEM_BYTES, 12 * dv.PAGE_SIZE))
            report = verify(_mutated(rec, rng), DEFAULT_REGISTER_MAP, budget)
            rules.update(rules_of(report))
            lines += [report.to_json(), repr(sorted(report.ranges.items())),
                      repr(list(report.dumps))]
    assert rules == {f"R{n}" for n in range(1, 10)}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERIFY_OUTCOMES_SHA256
