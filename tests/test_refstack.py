"""Reference stack: workload parsing, JIT correctness against the host
reference, driver protocol shape, injected delays."""

import random

import pytest

import gprr.device as dv
from gprr.device import Device
from gprr.refstack import (AllocFlags, DelayPolicy, DriverError, GpuStack,
                           Perm, StackListener, WorkloadError, build_graph,
                           emit_shader, matmul_shader_words, parse_workload)

from conftest import (builtin_graphs, chain_graph, i32s, random_input, record_graph,
                      replay_once, unpack32)


def fresh_stack(env_seed=0, delays=DelayPolicy(), rng_seed=0):
    return GpuStack(Device(env_seed=env_seed), delays=delays, rng_seed=rng_seed)


# -- graph construction and reference evaluation ---------------------------------

def test_vec_add_example():
    g = build_graph([("vec_add",)], 8)
    out = fresh_stack().run_workload(g, i32s([1, 2, 3, 4, 5, 6, 7, 8]))
    assert unpack32(out) == [6, 8, 10, 12]


def test_relu_example():
    g = build_graph([("relu",)], 4)
    out = fresh_stack().run_workload(g, i32s([-1, 0, 7, -9]))
    assert unpack32(out) == [0, 0, 7, 0]


def test_matmul_2x2_example():
    g = build_graph([("matmul", 2, 2, 2)], 8)
    out = fresh_stack().run_workload(g, i32s([1, 2, 3, 4, 5, 6, 7, 8]))
    assert unpack32(out) == [19, 22, 43, 50]


def test_scale_and_copy():
    g = build_graph([("scale", -2)], 4)
    assert unpack32(fresh_stack().run_workload(g, i32s([1, -2, 3, 0]))) == [-2, 4, -6, 0]
    g = build_graph([("copy",)], 4)
    assert unpack32(fresh_stack().run_workload(g, i32s([9, 8, 7, 6]))) == [9, 8, 7, 6]


@pytest.mark.parametrize("name", sorted(builtin_graphs()))
def test_output_matches_reference_on_random_inputs(name):
    g = builtin_graphs()[name]
    for seed in range(5):
        inp = random_input(g, seed * 31 + 1)
        assert fresh_stack(env_seed=seed).run_workload(g, inp) == g.evaluate(inp)


def test_reference_wraps_like_the_device():
    g = build_graph([("matmul", 2, 2, 2)], 8)
    inp = i32s([2 ** 30, 2 ** 29, -2 ** 30, 7, 2 ** 28, -2 ** 27, 3, -2 ** 31])
    assert fresh_stack().run_workload(g, inp) == g.evaluate(inp)


def test_graph_validation():
    with pytest.raises(ValueError):
        build_graph([("scale", 2), ("vec_add",)], 8)  # multi-operand mid-chain
    with pytest.raises(ValueError):
        build_graph([("vec_add",)], 7)  # odd packed input
    with pytest.raises(ValueError):
        build_graph([("matmul", 2, 2, 2)], 9)
    with pytest.raises(ValueError):
        build_graph([], 4)


def test_workload_text_roundtrip():
    text = """
    # comment
    input 16
    layer vec_add
    layer scale 3
    layer relu
    """
    g = parse_workload(text)
    assert [l.op for l in g.layers] == ["vec_add", "scale", "relu"]
    assert g.input_elems == 16 and g.output_elems == 8
    with pytest.raises(ValueError):
        parse_workload("layer scale 2\n")  # no input line
    with pytest.raises(ValueError):
        parse_workload("input 4\nfrobnicate\n")
    # matmul first layer implies the input size
    g = parse_workload("layer matmul 2 3 4\n")
    assert g.input_elems == 2 * 4 + 4 * 3


def test_alloc_flags_exclusion():
    stack = fresh_stack()
    stack._reset_allocators()
    with pytest.raises(ValueError):
        stack.alloc_map("bad", 16, AllocFlags.GPU_EXEC | AllocFlags.INTERNAL_SCRATCH,
                        Perm.READ)


def test_driver_va_to_pa_follows_map_and_unmap():
    stack = fresh_stack()
    stack._reset_allocators()
    stack.driver.init_mmu()
    rw = Perm.READ | Perm.WRITE
    a = stack.alloc_map("a", 3 * dv.PAGE_SIZE - 100, AllocFlags.CPU_VISIBLE, rw)
    b = stack.alloc_map("b", 16, AllocFlags.CPU_VISIBLE, rw)
    pages = stack.driver.mappings[a.gpu_va][4]
    for i, pa in enumerate(pages):
        for off in (0, 5, dv.PAGE_SIZE - 1):
            assert stack.driver.va_to_pa(a.gpu_va + i * dv.PAGE_SIZE + off) == pa + off
    stack.driver.unmap_pages(a.gpu_va)
    for va in (a.gpu_va, a.gpu_va + 2 * dv.PAGE_SIZE, b.gpu_va + dv.PAGE_SIZE):
        with pytest.raises(DriverError):
            stack.driver.va_to_pa(va)
    assert stack.driver.va_to_pa(b.gpu_va + 4) == stack.driver.mappings[b.gpu_va][4][0] + 4


def test_freed_pages_are_reused_first_in_their_order():
    # the order of a list allocator that pops its head and puts freed
    # pages back at the head, in their order
    stack = fresh_stack()
    stack._reset_allocators()
    model = list(range(dv.PAGE_SIZE, dv.MEM_BYTES, dv.PAGE_SIZE))

    def alloc(n):
        got = [stack._alloc_phys_page() for _ in range(n)]
        assert got == model[:n]
        del model[:n]
        return got

    def free(pages):
        stack._free_phys_pages(pages)
        model[:0] = pages

    a, b = alloc(3), alloc(2)
    stack.dev.mem_write(a[1], b"\xff" * dv.PAGE_SIZE)
    free(a)
    c = alloc(4)
    assert c[:3] == a and stack.dev.mem_read(a[1], dv.PAGE_SIZE) == bytes(dv.PAGE_SIZE)
    free([b[1], c[3]])
    free([c[0]])
    alloc(5)


def test_input_length_checked():
    g = build_graph([("relu",)], 4)
    with pytest.raises(ValueError):
        fresh_stack().run_workload(g, b"\x00" * 12)


# -- driver protocol shape --------------------------------------------------------

class Recorder(StackListener):
    def __init__(self):
        self.events = []

    def on_port_event(self, ev):
        self.events.append(ev)


def run_traced(graph, inp, **kw):
    stack = fresh_stack(**kw)
    tr = Recorder()
    stack.listener = tr
    out = stack.run_workload(graph, inp)
    stack.listener = None
    return stack, tr, out


def test_depth_one_submission():
    g = build_graph([("relu",)], 4)
    _, tr, _ = run_traced(g, i32s([1, -1, 2, -2]))
    kicks = [e for e in tr.events if e.kind == "write" and e.reg == "JOB_START"]
    assert len(kicks) == 1
    stack = fresh_stack()
    stack._reset_allocators()
    stack.driver.outstanding = True
    with pytest.raises(DriverError):
        stack.driver.submit_job(0x400000, 10)


def test_flush_poll_reads_end_clear():
    g = build_graph([("relu",)], 4)
    _, tr, _ = run_traced(g, i32s([1, -1, 2, -2]))
    polls = [e for e in tr.events if e.kind == "poll"]
    assert len(polls) == 1
    assert polls[0].n_reads >= 1
    assert polls[0].mask == dv.STATUS_DIRTY and polls[0].expect == 0


def test_page_tables_populated_lazily_but_before_kick():
    g = build_graph([("scale", 2), ("relu",)], 8)
    _, tr, _ = run_traced(g, i32s([1, 2, 3, 4, -1, -2, -3, -4]))
    kick_indices = [i for i, e in enumerate(tr.events)
                    if e.kind == "write" and e.reg == "JOB_START"]
    map_indices = [i for i, e in enumerate(tr.events) if e.kind == "map"]
    # every job's shader/descriptor mappings happen after the previous kick
    # (lazy) and before its own kick
    assert len(kick_indices) == 3  # 2 layers + staging copy
    for k0, k1 in zip(kick_indices, kick_indices[1:]):
        assert any(k0 < m < k1 for m in map_indices)


def test_scratch_unmapped_after_each_job():
    g = build_graph([("relu",)], 4)
    stack, tr, _ = run_traced(g, i32s([0, 1, 2, 3]))
    unmaps = [e for e in tr.events if e.kind == "unmap"]
    scratch = [a for a in stack.allocations if AllocFlags.INTERNAL_SCRATCH in a.flags]
    assert len(unmaps) == len(scratch) == 1
    assert unmaps[0].gpu_va == scratch[0].gpu_va


def test_workload_error_carries_layer_index():
    g = build_graph([("scale", 2), ("relu",)], 4)
    dev = Device()
    stack = GpuStack(dev)

    class Sabotage(StackListener):
        # corrupt the input buffer's PTE right before the first kick
        def __init__(self):
            self.armed = True

        def on_port_event(self, ev):
            if ev.kind == "pre_kick" and self.armed:
                self.armed = False
                dev.corrupt_pte(0x400000)

    stack.listener = Sabotage()
    with pytest.raises(WorkloadError) as ei:
        stack.run_workload(g, i32s([1, 2, 3, 4]))
    assert ei.value.layer == 0
    assert str(ei.value) == "layer 0: MMU fault at 0x400000"  # one layer prefix


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (8, 8, 8)])
def test_matmul_shader_size_formula(shape):
    m, n, k = shape
    layer = build_graph([("matmul", m, n, k)], m * k + k * n).layers[0]
    assert len(emit_shader(layer, 0, 0)[0]) == matmul_shader_words(m, n, k)


def test_matmul_shape_over_the_shader_limit_is_rejected_at_graph_build():
    with pytest.raises(ValueError, match="65536-byte shader limit"):
        build_graph([("matmul", 12, 12, 12)], 288)
    g = build_graph([("matmul", 11, 11, 11)], 242)
    assert 4 * matmul_shader_words(11, 11, 11) <= dv.SHADER_MAX_BYTES
    inp = random_input(g, 3)
    r = replay_once(record_graph(g).recordings[0], [inp])
    assert r.ok and r.outputs == [g.evaluate(inp)]


# -- delays and idle time ------------------------------------------------------------

def test_zero_delays_keep_gpu_gaps_device_bound():
    g = build_graph([("relu",)], 4)
    stack, tr, _ = run_traced(g, i32s([1, 2, 3, 4]))
    # without injected delays, gaps between events stay tiny (alloc zeroing
    # and dump charges only); nothing in the hundreds of microseconds
    gaps = [b.t0 - a.t1 for a, b in zip(tr.events, tr.events[1:])]
    assert max(gaps) < 50_000


class BusyAtEdges(StackListener):
    """``dev.busy`` at each event's t0 and t1, as (event, busy at t0, busy
    at t1). A listener sees an event at its t1; an access's t0 is when the
    stack's OS-jitter sleep before it returns, and a kick's t0 is its t1."""

    def __init__(self, stack):
        self.dev = dev = stack.dev
        self.edges = []
        self._t0 = None
        jitter = stack._os_jitter

        def sampled():
            jitter()
            self._t0 = (dev.vclock_ns, dev.busy)
        stack._os_jitter = sampled

    def on_port_event(self, ev):
        t0, busy0 = (ev.t0, self.dev.busy) if ev.kind == "pre_kick" else self._t0
        assert t0 == ev.t0
        self.edges.append((ev, busy0, self.dev.busy))


def run_sampled(graph, inp, **kw):
    stack = fresh_stack(**kw)
    tr = stack.listener = BusyAtEdges(stack)
    stack.run_workload(graph, inp)
    stack.listener = None
    return tr.edges


@pytest.mark.parametrize("delays", [DelayPolicy(50_000, 20_000, 5_000),
                                    DelayPolicy(0, 0, 3_000)])
@pytest.mark.parametrize("name", [*sorted(builtin_graphs()), "chain9"])
def test_no_gap_starts_idle_and_ends_busy(name, delays):
    # the recorder's rule: only a driver access starts device work, so a
    # gap that starts idle stays idle, and idleness at the start of a gap
    # decides its floor
    g = chain_graph(9) if name == "chain9" else builtin_graphs()[name]
    edges = run_sampled(g, random_input(g, 5), env_seed=3, delays=delays, rng_seed=3)
    gaps = [(a[2], b[1]) for a, b in zip(edges, edges[1:])]
    assert (False, True) not in gaps
    # both kinds of gap occur: some end a job, or a flush, in their sleeps
    assert (True, False) in gaps and (False, False) in gaps


def test_injected_jit_delay_visible_as_idle_gaps():
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 8)
    edges = run_sampled(g, i32s(range(8)), delays=DelayPolicy(jit_ns=50_000))
    big_idle = sum(1 for (a, _, busy), (b, _, _) in zip(edges, edges[1:])
                   if b.t0 - a.t1 >= 50_000 and not busy)
    assert big_idle >= 3  # one per JIT phase, 4 jobs total


def test_os_jitter_changes_intervals_not_structure():
    g = build_graph([("relu",)], 4)
    runs = []
    for rng_seed in (1, 2):
        _, tr, _ = run_traced(g, i32s([5, -5, 6, -6]),
                              delays=DelayPolicy(os_jitter_ns=3000),
                              rng_seed=rng_seed)
        runs.append(tr.events)
    kinds = [[(e.kind, e.reg) for e in evs] for evs in runs]
    assert kinds[0] == kinds[1]
    gaps = [tuple(b.t0 - a.t1 for a, b in zip(evs, evs[1:])) for evs in runs]
    assert gaps[0] != gaps[1]
