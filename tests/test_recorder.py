"""Recorder: action summarization, interval classification, dump filters,
I/O discovery."""

import hashlib
from collections import Counter

import pytest

import gprr.device as dv
from gprr import recorder
from gprr.actions import (ActionClass, Granularity, IoMode, IoRole,
                          LoadMemDump, MapGpuMem, RegRead, RegReadWait,
                          RegWrite, UnmapGpuMem, WaitIrq, canonical_actions)
from gprr.device import Device, SKU_A, SKU_B
from gprr.patcher import patch
from gprr.recfmt import inflate
from gprr.recorder import (DiscoveryError, HarnessError, RecordHarness, _RunTrace,
                           magic_bytes, parse_harness, record)
from gprr.refstack import VA_BASE, AllocFlags, DelayPolicy, GpuStack, build_graph

from conftest import builtin_graphs, gprr_calls, i32s, record_chain64, record_graph


# -- recorded action shape ------------------------------------------------------------

def test_single_layer_recording_shape():
    g = build_graph([("vec_add",)], 8)
    rec = record_graph(g).recordings[0]
    kicks = [a for a in rec.actions
             if isinstance(a, RegWrite) and a.reg_name == "JOB_START"]
    waits = [a for a in rec.actions if isinstance(a, WaitIrq)]
    assert len(kicks) == 1
    assert len(waits) == 1 and waits[0].expect_rawstat == dv.IRQ_JOB_DONE
    polls = [a for a in rec.actions if isinstance(a, RegReadWait)]
    assert len(polls) == 1 and polls[0].max_polls >= 1
    nondet = [a for a in rec.actions if isinstance(a, RegRead)
              and a.state_class is ActionClass.NONDET]
    assert [a.reg_name for a in nondet] == ["JOB_PROGRESS"]


def test_recordings_differ_only_in_permitted_noise():
    g = build_graph([("vec_add",), ("scale", 3)], 8)
    a = record_graph(g, env_seed=1, delays=DelayPolicy(os_jitter_ns=2000),
                     stack_seed=1).recordings[0]
    b = record_graph(g, env_seed=2, delays=DelayPolicy(os_jitter_ns=2000),
                     stack_seed=2).recordings[0]
    assert canonical_actions(a) == canonical_actions(b)
    assert [x.raw_interval_ns for x in a.actions] != [x.raw_interval_ns for x in b.actions]


def test_every_state_event_appears_once_in_order():
    g = build_graph([("relu",)], 4)
    rec = record_graph(g).recordings[0]
    writes = [(a.reg_name, a.value) for a in rec.actions if isinstance(a, RegWrite)]
    assert writes.count(("JOB_START", 1)) == 1
    assert writes[0] == ("GPU_CMD", dv.CMD_SOFT_RESET)


# -- dump policy ------------------------------------------------------------------------

def regions_of(rec):
    return {d.gpu_va: d for d in rec.dumps}


def test_exec_pages_always_dumped_scratch_excluded():
    g = build_graph([("relu",)], 4)
    res = record_graph(g)
    rec = res.recordings[0]
    dev = Device(env_seed=7)
    stack = GpuStack(dev)
    stack.run_workload(g, magic_bytes(1, len(res.trials), 16))
    shader = stack.find_alloc("L0.shader")
    desc = stack.find_alloc("L0.desc")
    scratch = stack.find_alloc("L0.scratch")
    dumped = regions_of(rec)
    assert shader.gpu_va in dumped and desc.gpu_va in dumped
    assert scratch.gpu_va not in dumped
    assert dumped[shader.gpu_va].origin_filter.name == "EXEC_PAGE"


def test_by_address_input_never_dumped():
    g = build_graph([("relu",)], 4)
    res = record_graph(g)
    in_va = res.io_table[0].gpu_va
    assert in_va not in regions_of(res.recordings[0])


def test_by_value_input_lands_in_dumps():
    g = build_graph([("relu",)], 4)
    h = RecordHarness(input_modes={0: IoMode.BY_VALUE})
    res = record_graph(g, harness=h)
    rec = res.recordings[0]
    assert not rec.inputs()  # no INPUT descriptor in by-value mode
    # the magic input bytes are captured inside some dump
    magic = magic_bytes(h.magic_seed, len(res.trials), 16)
    blobs = [inflate(d.payload, d.raw_len) for d in rec.dumps]
    assert any(magic in b for b in blobs)


def test_unchanged_pages_not_redumped():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 8)
    rec = record_graph(g).recordings[0]
    per_va = {}
    for d in rec.dumps:
        per_va.setdefault(d.gpu_va, []).append(hashlib.sha256(
            inflate(d.payload, d.raw_len)).digest())
    for va, hashes in per_va.items():
        assert len(hashes) == len(set(hashes)), f"duplicate dump content at {va:#x}"


def test_kick_snapshot_sees_host_write_since_the_last_kick():
    g = build_graph([("scale", 3), ("relu",)], 16)
    stack = GpuStack(Device())
    poke = b"\x5a" * 8

    class PokeBeforeSecondKick(_RunTrace):
        kicks = 0

        def on_port_event(self, ev):
            if ev.kind == "pre_kick":
                self.kicks += 1
                if self.kicks == 2:  # into the input buffer, read by job 1 only
                    self.stack.mem_write_va(VA_BASE + 8, poke)
            super().on_port_event(ev)

    trace = PokeBeforeSecondKick(stack)
    stack.listener = trace
    stack.run_workload(g, i32s(range(16)))
    stack.listener = None
    first, second = [{r.gpu_va: r.content for r in e.changed}
                     for e in trace.entries if e.changed is not None][:2]
    assert first[VA_BASE][8:16] == i32s([2, 3])
    assert second[VA_BASE][8:16] == poke
    # layer 0's shader was not written between the kicks: only the first
    # kick lists it
    shader = stack.find_alloc("L0.shader").gpu_va
    assert shader in first and shader not in second


def test_record_work_grows_linearly_with_the_job_count():
    # a kick re-reads and re-checks only the regions written since the
    # kick before, so the calls into gprr code per recorded job stay flat
    # from 64 to 256 jobs (about 470 each); re-reading every live region at
    # every kick makes it about 1,840 at 64 and 5,870 at 256. A count, not
    # a clock: the host's load and the cyclic GC do not move it
    def per_job(jobs):  # built as the benchmark's chain-64
        specs = [("scale", 3) if i % 2 == 0 else ("copy",) for i in range(jobs - 1)]
        stack = GpuStack(Device(env_seed=1), delays=DelayPolicy(50_000, 20_000, 5_000))
        return gprr_calls(record, stack, build_graph(specs, 16))[1] / jobs

    small, large = per_job(64), per_job(256)
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("granularity", list(Granularity))
def test_record_reads_only_regions_a_recording_can_hold(granularity, monkeypatch):
    # scratch and buffers never CPU-mapped are never dumped, so a kick
    # does not read them either
    reads = []
    real = GpuStack.mem_read_va

    def spy(self, va, n):
        reads.append((va, n))
        return real(self, va, n)
    monkeypatch.setattr(GpuStack, "mem_read_va", spy)
    stack = GpuStack(Device(env_seed=7))
    record(stack, builtin_graphs()["mixed3"], RecordHarness(granularity=granularity))
    unread = [a for a in stack.allocations if AllocFlags.INTERNAL_SCRATCH in a.flags
              or not a.flags & (AllocFlags.CPU_VISIBLE | AllocFlags.GPU_EXEC)]
    assert {a.tag for a in unread} >= {"L0.scratch", "L0.out", "L1.out"}
    assert reads
    for va, n in reads:
        for a in unread:
            assert not (va < a.gpu_va + a.n_pages * dv.PAGE_SIZE and a.gpu_va < va + n), \
                (hex(va), n, a.tag)


def _counting_deflate(monkeypatch) -> list:
    """Wraps ``recorder.deflate``; returns the list its calls' inputs go to."""
    calls = []
    real = recorder.deflate

    def counted(data):
        calls.append(data)
        return real(data)
    monkeypatch.setattr(recorder, "deflate", counted)
    return calls


def test_each_distinct_snapshot_is_deflated_once(monkeypatch):
    # DEFLATE is deterministic, so a snapshot dumped again shares the
    # payload of its first dump; raw_dump_bytes still counts every dump
    calls = _counting_deflate(monkeypatch)
    res = record_chain64()
    dumps = res.recordings[0].dumps
    assert (len(calls), len(dumps)) == (67, 129)
    assert len(set(calls)) == len(calls) == len({d.payload for d in dumps})
    assert res.raw_dump_bytes == sum(d.raw_len for d in dumps)
    for d in dumps:
        assert inflate(d.payload, d.raw_len) == d.raw


def test_per_layer_slices_share_one_deflate_per_snapshot(monkeypatch):
    calls = _counting_deflate(monkeypatch)
    harness = RecordHarness(granularity=Granularity.PER_LAYER)
    recs = record_graph(builtin_graphs()["mixed3"], harness=harness).recordings
    payloads = {d.payload for r in recs for d in r.dumps}
    assert len(calls) == len(set(calls)) <= len(payloads)
    assert sum(len(r.dumps) for r in recs) > len(calls)  # some slice repeats a snapshot


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("name", [*sorted(builtin_graphs()), "chain15"])
def test_each_dump_is_loaded_by_exactly_one_load_mem_dump(name, granularity):
    # replay writes a dump only at its LoadMemDump: a dump no action names
    # would never reach RAM, and one named twice would be held twice
    g = builtin_graphs().get(name) or build_graph(
        [("scale", 3) if i % 2 == 0 else ("copy",) for i in range(15)], 16)
    recs = record_graph(g, harness=RecordHarness(granularity=granularity)).recordings
    for rec in recs + [patch(r, SKU_A, SKU_B) for r in recs]:
        loads = [a for a in rec.actions if isinstance(a, LoadMemDump)]
        assert len({d.dump_id for d in rec.dumps}) == len(rec.dumps)
        assert Counter(a.dump_id for a in loads) == Counter(d.dump_id for d in rec.dumps)
        assert {a.dump_id: a.gpu_va for a in loads} == {d.dump_id: d.gpu_va for d in rec.dumps}


def test_dumps_reconstruct_byte_identical_exec_pages():
    g = build_graph([("vec_add",)], 8)
    res = record_graph(g)
    rec = res.recordings[0]
    for d in rec.dumps:
        assert len(inflate(d.payload, d.raw_len)) == d.raw_len


# -- interval statistics --------------------------------------------------------------

def test_majority_of_intervals_skippable_with_injected_delays():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 8)
    res = record_graph(g, delays=DelayPolicy(jit_ns=50_000, mgmt_ns=20_000))
    assert res.skipped_intervals > res.kept_intervals


def test_kept_intervals_overlap_busy_time():
    g = build_graph([("relu",)], 4)
    res = record_graph(g, delays=DelayPolicy(os_jitter_ns=5000),
                       stack_seed=3)
    rec = res.recordings[0]
    kept = [a for a in rec.actions if a.min_interval_ns > 0]
    assert kept, "expected at least one non-skippable interval"
    for a in kept:
        assert a.min_interval_ns == a.raw_interval_ns


# -- I/O discovery ----------------------------------------------------------------------

def test_discovery_matches_allocator_ground_truth():
    for name, g in builtin_graphs().items():
        res = record_graph(g)
        dev = Device(env_seed=7)
        stack = GpuStack(dev)
        stack.run_workload(g, bytes(g.input_elems * 4))
        gt_in = stack.find_alloc("input").gpu_va
        out_tag = "output" if len(g.layers) > 1 else "L0.out"
        gt_out = stack.find_alloc(out_tag).gpu_va
        ins = [d for d in res.io_table if d.role is IoRole.INPUT]
        outs = [d for d in res.io_table if d.role is IoRole.OUTPUT]
        assert ins[0].gpu_va == gt_in, name
        assert outs[0].gpu_va == gt_out, name


def test_low_entropy_output_disambiguated_by_retrials():
    g = build_graph([("scale", 3)], 1)
    seed = 9
    expected_first = g.evaluate(magic_bytes(seed, 1, 4))

    def plant(stack):
        out = stack.find_alloc("L0.out")
        stack.mem_write_va(out.gpu_va + 64, expected_first)
        stack.mem_write_va(out.gpu_va + 256, expected_first)

    res = record_graph(g, harness=RecordHarness(magic_seed=seed,
                                                pre_scan_hook=plant))
    assert len(res.trials) == 2  # one re-record resolved it
    assert len(res.trials[0].output_candidates) >= 3
    assert len(res.trials[1].output_candidates) == 1


def test_persistent_ambiguity_errors_after_max_trials():
    g = build_graph([("scale", 3)], 1)

    def mirror(stack):
        # copy the live output elsewhere on every run: never disambiguates
        out = stack.find_alloc("L0.out")
        stack.mem_write_va(out.gpu_va + 128,
                           stack.mem_read_va(out.gpu_va, 4))

    with pytest.raises(DiscoveryError) as ei:
        record_graph(g, harness=RecordHarness(magic_seed=2, max_trials=3,
                                              pre_scan_hook=mirror))
    assert "3 trials" in str(ei.value)


def test_copy_graph_input_resolved_from_dumps():
    # a pure copy aliases input and output bytes; dump-first matching keeps
    # the input unique and the no-overlap rule keeps the output unique
    g = build_graph([("copy",)], 8)
    res = record_graph(g)
    assert len(res.trials) == 1
    ins = [d for d in res.io_table if d.role is IoRole.INPUT]
    outs = [d for d in res.io_table if d.role is IoRole.OUTPUT]
    assert len(ins) == 1 and len(outs) == 1
    assert ins[0].gpu_va != outs[0].gpu_va


# -- harness parsing ----------------------------------------------------------------------

def test_parse_harness():
    h = parse_harness("""
        input 0 both
        magic_seed 42
        trials 7
        granularity per_layer
    """)
    assert h.input_modes == {0: IoMode.BOTH}
    assert h.magic_seed == 42
    assert h.max_trials == 7
    assert h.granularity is Granularity.PER_LAYER
    with pytest.raises(ValueError):
        parse_harness("input 0 sideways\n")


@pytest.mark.parametrize("line, reason", [
    ("trials 0", "trials must be at least 1"),
    ("trials -1", "trials must be at least 1"),
    ("input 0 sideways", "'sideways' is not one of by_value, by_address, both"),
    ("input zero both", "'zero' is not a number"),
    ("magic_seed 0xZZ", "'0xZZ' is not a number"),
    ("granularity coarse", "'coarse' is not one of monolithic, per_layer"),
    ("trials", "want 'trials <n>'"),
    ("input 0 both 1", "want 'input <idx> by_value|by_address|both'"),
    ("trails 3", "unknown directive 'trails'"),
])
def test_a_bad_harness_line_says_why(line, reason):
    raw = f"{line}  # note"
    with pytest.raises(ValueError) as e:
        parse_harness(f"magic_seed 3\n{raw}\n")
    assert str(e.value) == f"harness line 2: {raw!r}: {reason}"


@pytest.mark.parametrize("harness", [
    RecordHarness(granularity="per_layer"),
    RecordHarness(input_modes={0: "both"}),
    RecordHarness(max_trials=0),
], ids=["granularity", "input_mode", "max_trials"])
def test_a_harness_built_in_python_is_checked_before_any_run(harness):
    # the fields parse_harness would have checked: a plain string is no
    # Granularity or IoMode, and a recording takes at least one run
    stack = GpuStack(Device())

    def run_workload(graph, input_bytes):
        raise AssertionError("the stack ran")
    stack.run_workload = run_workload
    with pytest.raises(HarnessError):
        record(stack, build_graph([("relu",)], 4), harness)


# -- per-layer slicing ------------------------------------------------------------------------

def test_per_layer_recordings_are_self_contained():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 8)
    h = RecordHarness(granularity=Granularity.PER_LAYER)
    res = record_graph(g, harness=h)
    recs = res.recordings
    assert len(recs) == 3
    from gprr.verifier import verify
    for k, rec in enumerate(recs):
        assert rec.header.granularity is Granularity.PER_LAYER
        assert rec.header.workload_label.endswith(f"[L{k}]")
        assert verify(rec).ok, f"slice {k} failed verification"
    # slices 1.. start with the synthesized identification prologue
    for rec in recs[1:]:
        first = rec.actions[0]
        assert isinstance(first, RegRead) and first.reg_name == "GPU_ID"
    # stitching: each slice's output length equals the next one's input
    for a, b in zip(recs, recs[1:]):
        assert a.outputs()[0].len_bytes == b.inputs()[0].len_bytes
    # the staging copy job folds into the last slice
    assert recs[-1].job_count() == 2
