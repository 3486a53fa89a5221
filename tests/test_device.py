"""Device model: registers, MMU, job chains, timing, snapshots, faults.

The _Rig below drives the device with hand-built page tables and shaders,
independently of the reference stack, so device semantics are pinned on
their own.
"""

import random
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gprr.device as dv
from gprr.device import (BusError, Device, DeviceSnapshot, MmuFault,
                         Perm, SKU_A, SKU_B, SkuMismatch)
from gprr import shader
from gprr.refstack import Layer, emit_shader
from gprr.shader import Asm

OFF = {e.name: e.offset for e in dv.DEFAULT_REGISTER_MAP.entries}


def rd(dev, name):
    return dev.reg_read(OFF[name])


def wr(dev, name, value):
    dev.reg_write(OFF[name], value)


class _Rig:
    """Minimal hand-rolled driver: fixed physical layout, one L1/L2 pair."""

    L1_PA = 0x1000
    L2_PA = 0x2000
    FIRST_DATA_PA = 0x10000
    VA_BASE = 0x0040_0000  # L1 index 1

    def __init__(self, dev: Device):
        self.dev = dev
        self.next_pa = self.FIRST_DATA_PA
        self.next_va = self.VA_BASE
        sku = dev.sku
        l1 = self.L2_PA | sku.encode_perms(Perm.VALID | Perm.READ)
        dev.mem_write(self.L1_PA + 1 * 4, l1.to_bytes(4, "little"))
        wr(dev, "MMU_TABLE_BASE_LO", self.L1_PA)
        wr(dev, "MMU_TABLE_BASE_HI", 0)

    def map_page(self, perms) -> tuple[int, int]:
        va, pa = self.next_va, self.next_pa
        self.next_va += dv.PAGE_SIZE
        self.next_pa += dv.PAGE_SIZE
        self.map_at(va, pa, perms)
        return va, pa

    def map_at(self, va, pa, perms):
        """Map one VA page (inside L1 slot 1) to any physical page."""
        entry = pa | self.dev.sku.encode_perms(perms | Perm.VALID)
        self.dev.mem_write(self.L2_PA + ((va >> 12) & 0x3FF) * 4,
                           entry.to_bytes(4, "little"))

    def put(self, va, data):
        # direct physical placement: pages were handed out sequentially
        off = va - self.VA_BASE
        self.dev.mem_write(self.FIRST_DATA_PA + off, data)

    def job(self, shader_words, params, affinity=None, next_va=0):
        code = b"".join(w.to_bytes(4, "little") for w in shader_words)
        sh_va, _ = self.map_page(Perm.READ | Perm.EXEC)
        self.put(sh_va, code)
        desc_va, _ = self.map_page(Perm.READ | Perm.EXEC)
        aff = affinity if affinity is not None else self.dev.sku.full_core_mask
        words = [next_va, sh_va, len(code), aff] + list(params) + [0] * (8 - len(params))
        self.put(desc_va, b"".join((w & 0xFFFFFFFF).to_bytes(4, "little")
                                   for w in words))
        return desc_va

    def kick(self, desc_va):
        wr(self.dev, "JOB_HEAD_LO", desc_va)
        wr(self.dev, "JOB_HEAD_HI", 0)
        wr(self.dev, "JOB_AFFINITY", self.dev.sku.full_core_mask)
        wr(self.dev, "JOB_START", 1)


def store_const_shader(out_va, value):
    a = Asm()
    a.ldi(0, out_va)
    a.ldi(1, value)
    a.st(0, 1)
    a.halt()
    return a.assemble()


# -- registers ---------------------------------------------------------------

def test_gpu_id_constants():
    assert rd(Device(sku=SKU_A), "GPU_ID") == 0x0B31
    assert rd(Device(sku=SKU_B), "GPU_ID") == 0x0B71


def test_unknown_offset_is_bus_error():
    dev = Device()
    with pytest.raises(BusError):
        dev.reg_read(0x9C)
    with pytest.raises(BusError):
        dev.reg_write(0x9C, 1)


def test_access_direction_enforced():
    dev = Device()
    with pytest.raises(BusError):
        wr(dev, "GPU_ID", 1)  # read-only
    with pytest.raises(BusError):
        rd(dev, "GPU_CMD")  # write-only


def test_irq_clear_is_write_one_to_clear():
    dev = Device()
    wr(dev, "GPU_CMD", dv.CMD_SOFT_RESET)
    assert rd(dev, "GPU_IRQ_RAWSTAT") == dv.IRQ_RESET_DONE
    wr(dev, "GPU_IRQ_CLEAR", dv.IRQ_RESET_DONE)
    assert rd(dev, "GPU_IRQ_RAWSTAT") == 0


def test_soft_reset_state():
    dev = Device(sku=SKU_B)
    wr(dev, "GPU_IRQ_MASK", 0x7)
    wr(dev, "MMU_CONFIG", 0x55)
    wr(dev, "JOB_HEAD_LO", 0x1234)
    wr(dev, "GPU_CMD", dv.CMD_SOFT_RESET)
    assert rd(dev, "GPU_ID") == SKU_B.gpu_id_value
    assert rd(dev, "GPU_IRQ_RAWSTAT") == dv.IRQ_RESET_DONE
    for name in ("GPU_IRQ_MASK", "MMU_CONFIG", "JOB_HEAD_LO", "JOB_HEAD_HI",
                 "JOB_AFFINITY", "MMU_TABLE_BASE_LO", "JOB_STATUS"):
        assert rd(dev, name) == 0, name
    assert rd(dev, "PWR_CORES_ON") == SKU_B.full_core_mask


def test_job_progress_is_nondeterministic_across_seeds():
    # at least one seed pair must diverge in back-to-back progress reads
    values = []
    for seed in (0, 1):
        dev = Device(env_seed=seed)
        values.append((rd(dev, "JOB_PROGRESS"), rd(dev, "JOB_PROGRESS")))
    assert values[0] != values[1]


def test_clock_div_clamps_to_one():
    dev = Device()
    wr(dev, "CLOCK_DIV", 0)
    assert rd(dev, "CLOCK_DIV") == 1


# -- MMU ------------------------------------------------------------------------

def test_translate_walk_arithmetic():
    # L1[1] -> L2 page, L2[1] = PPN 0x2A with V+R, VA 0x0040_1004 -> 0x2A004
    dev = Device(sku=SKU_A)
    l1 = 0x2000 | SKU_A.encode_perms(Perm.VALID)
    dev.mem_write(0x1000 + 1 * 4, l1.to_bytes(4, "little"))
    l2 = (0x2A << 12) | SKU_A.encode_perms(Perm.VALID | Perm.READ)
    dev.mem_write(0x2000 + 1 * 4, l2.to_bytes(4, "little"))
    wr(dev, "MMU_TABLE_BASE_LO", 0x1000)
    assert dev._walk(0x0040_1004, Perm.READ.value) == 0x2A004


def test_translate_missing_exec_bit_faults():
    dev = Device()
    rig = _Rig(dev)
    va, pa = rig.map_page(Perm.READ | Perm.WRITE)
    with pytest.raises(MmuFault):
        dev._walk(va, Perm.EXEC.value)
    assert dev._walk(va, Perm.READ.value) == pa
    # the walk latches nothing: a job's fault does
    assert not rd(dev, "GPU_IRQ_RAWSTAT") & dv.IRQ_MMU_FAULT


def test_perm_bits_interpret_differently_per_sku():
    # 0b0110: bits 1,2 set. SKU-A layout reads {READ, WRITE};
    # SKU-B layout reads {EXEC, READ}.
    assert SKU_A.decode_perms(0b0110) == (Perm.READ | Perm.WRITE)
    assert SKU_B.decode_perms(0b0110) == (Perm.EXEC | Perm.READ)
    assert SKU_A.decode_perms(0b0110) != SKU_B.decode_perms(0b0110)


def test_tlb_caches_until_invalidated():
    dev = Device()
    rig = _Rig(dev)
    va, pa = rig.map_page(Perm.READ)
    assert dev._walk(va, Perm.READ.value) == pa
    # clearing the PTE behind the walk cache leaves the stale entry live
    dev.mem_write(rig.L2_PA + ((va >> 12) & 0x3FF) * 4, b"\x00" * 4)
    assert dev._walk(va, Perm.READ.value) == pa
    wr(dev, "GPU_CMD", dv.CMD_TLB_INVALIDATE)
    with pytest.raises(MmuFault):
        dev._walk(va, Perm.READ.value)


# -- jobs, time, flush ---------------------------------------------------------------

def run_store_job(dev, rig, value=0xDEAD):
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    desc = rig.job(store_const_shader(out_va, value), [])
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(desc)
    return out_va, out_pa


def test_job_completion_and_status():
    dev = Device()
    rig = _Rig(dev)
    run_store_job(dev, rig)
    assert rd(dev, "GPU_STATUS") & dv.STATUS_BUSY
    assert rd(dev, "JOB_STATUS") == dv.JOB_RUNNING
    events = dev.tick(10_000_000)
    assert any(e.bits & dv.IRQ_JOB_DONE for e in events)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    assert not rd(dev, "GPU_STATUS") & dv.STATUS_BUSY


def test_tick_zero_is_identity():
    dev = Device()
    rig = _Rig(dev)
    run_store_job(dev, rig)
    before = (dev.vclock_ns, rd(dev, "JOB_STATUS"))
    assert dev.tick(0) == []
    assert (dev.vclock_ns, rd(dev, "JOB_STATUS")) == before


def test_masked_interrupts_are_latched_but_not_delivered():
    dev = Device()
    rig = _Rig(dev)
    run_store_job(dev, rig)
    wr(dev, "GPU_IRQ_MASK", 0)
    events = dev.tick(10_000_000)
    assert events == []
    assert rd(dev, "GPU_IRQ_RAWSTAT") & dv.IRQ_JOB_DONE


def test_job_cost_within_jitter_band():
    # store-const shader executes exactly 4 instructions
    base = dv.JOB_BASE_COST_NS + dv.JOB_INSTR_COST_NS * 4
    for seed in range(8):
        dev = Device(env_seed=seed)
        rig = _Rig(dev)
        run_store_job(dev, rig)
        t0 = dev.vclock_ns
        events = dev.tick(10_000_000)
        done = next(e for e in events if e.bits & dv.IRQ_JOB_DONE)
        took = done.t_ns - t0
        assert base * dv.JITTER_LO - 1 <= took <= base * dv.JITTER_HI + 1


def test_vec_add_1024_cost_band():
    # oracle: the vec_add loop body is 9 instructions per element plus HALT,
    # so 1024 elements run 9217 instructions; base cost 200 + 2*9217 =
    # 18634 ns, jittered into [16770.6, 24224.2] at clock_div=1
    from gprr.refstack import emit_shader, Layer
    n = 1024
    words, est, params = emit_shader(Layer("vec_add", (), 2 * n, n), 0, 0)
    assert est == 9 * n + 1 == 9217
    for seed in range(4):
        dev = Device(env_seed=seed)
        rig = _Rig(dev)
        in_va, _ = rig.map_page(Perm.READ)   # operand A, 4 KiB
        rig.map_page(Perm.READ)              # operand B at in_va + 4096
        out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
        words, est, params = emit_shader(Layer("vec_add", (), 2 * n, n),
                                         in_va, out_va)
        desc = rig.job(words, params)
        wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
        t0 = dev.vclock_ns
        rig.kick(desc)
        done = next(e for e in dev.tick(50_000_000) if e.bits & dv.IRQ_JOB_DONE)
        assert 16770 <= done.t_ns - t0 <= 24225


def test_kick_while_busy_is_bad_state():
    dev = Device()
    rig = _Rig(dev)
    run_store_job(dev, rig)
    wr(dev, "JOB_START", 1)
    assert rd(dev, "JOB_STATUS") == dv.JOB_BAD_STATE


def test_stores_invisible_until_cache_flush():
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = run_store_job(dev, rig, value=0x1234)
    dev.tick(10_000_000)
    assert dev.mem_read(out_pa, 4) == b"\x00" * 4  # still buffered
    assert rd(dev, "GPU_STATUS") & dv.STATUS_DIRTY
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)
    assert not rd(dev, "GPU_STATUS") & dv.STATUS_DIRTY
    assert dev.mem_read(out_pa, 4) == (0x1234).to_bytes(4, "little")


def test_chain_of_two_descriptors():
    dev = Device()
    rig = _Rig(dev)
    out1, pa1 = rig.map_page(Perm.READ | Perm.WRITE)
    out2, pa2 = rig.map_page(Perm.READ | Perm.WRITE)
    second = rig.job(store_const_shader(out2, 22), [])
    first = rig.job(store_const_shader(out1, 11), [], next_va=second)
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(first)
    dev.tick(10_000_000)
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)
    assert dev.mem_read(pa1, 4) == (11).to_bytes(4, "little")
    assert dev.mem_read(pa2, 4) == (22).to_bytes(4, "little")


def run_chain(rig, desc_va):
    """Kick the chain at ``desc_va`` and run it out: its JOB_STATUS,
    MMU_FAULT_ADDR and shader instruction count."""
    rig.kick(desc_va)
    count = rig.dev._pending_job.instr_count
    rig.dev.tick(10_000_000)
    return rd(rig.dev, "JOB_STATUS"), rd(rig.dev, "MMU_FAULT_ADDR"), count


def halt_shader():
    a = Asm()
    a.halt()
    return a.assemble()


def test_an_unaligned_descriptor_faults_at_its_va():
    rig = _Rig(Device())
    desc = rig.job(halt_shader(), [])
    status, fault, _ = run_chain(rig, desc + 2)
    assert (status, fault) == (dv.JOB_MMU_FAULT, desc + 2)


def test_a_shader_over_the_size_limit_faults_at_its_va():
    rig = _Rig(Device())
    desc = rig.job(halt_shader(), [])
    shader_va = desc - dv.PAGE_SIZE  # job() maps the shader's page, then the descriptor's
    rig.put(desc + 8, (dv.SHADER_MAX_BYTES + 4).to_bytes(4, "little"))  # shader_len
    status, fault, _ = run_chain(rig, desc)
    assert (status, fault) == (dv.JOB_MMU_FAULT, shader_va)


def test_a_self_linked_chain_stops_past_the_job_limit():
    rig = _Rig(Device())
    desc = rig.job(halt_shader(), [])
    rig.put(desc, desc.to_bytes(4, "little"))  # next_va: itself
    status, _, count = run_chain(rig, desc)
    assert (status, count) == (dv.JOB_BAD_STATE, dv.CHAIN_MAX_JOBS)


def test_the_step_budget_covers_a_whole_chain():
    # one job of 202 instructions fits a budget of 300; a chain of two
    # runs out of it in its second job
    a = Asm()
    a.ldi(1, 100)
    a.label("loop")
    a.addi(1, 1, -1)
    a.bnz(1, "loop")
    a.halt()
    rig = _Rig(Device())
    alone = rig.job(a.assemble(), [])
    second = rig.job(a.assemble(), [])
    first = rig.job(a.assemble(), [], next_va=second)
    with mock.patch.object(dv, "SHADER_STEP_BUDGET", 300):
        assert run_chain(rig, alone)[::2] == (dv.JOB_DONE, 202)
        assert run_chain(rig, first)[::2] == (dv.JOB_BAD_STATE, 300)


def store_params_shader(out_va):
    """Stores r1..r7, descriptor words 5..11, to seven words at out_va."""
    a = Asm()
    for r in range(1, 8):
        a.ldi(0, out_va + 4 * (r - 1))
        a.st(0, r)
    a.halt()
    return a.assemble()


def words_le(words):
    return b"".join((w & 0xFFFFFFFF).to_bytes(4, "little") for w in words)


def test_descriptor_across_a_page_edge_reads_each_page_through_its_own_entry():
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    code = store_params_shader(out_va)
    sh_va, _ = rig.map_page(Perm.READ | Perm.EXEC)
    rig.put(sh_va, words_le(code))
    # words 0..5 at the end of one VA page, 6..11 at the start of the next,
    # whose physical page is not the one after the first
    va_a, pa_a, pa_b = rig.next_va, 0x80000, 0x90000
    rig.map_at(va_a, pa_a, Perm.READ)
    rig.map_at(va_a + dv.PAGE_SIZE, pa_b, Perm.READ)
    params = [0x1111 * (k + 1) for k in range(8)]
    desc = words_le([0, sh_va, 4 * len(code), dev.sku.full_core_mask] + params)
    dev.mem_write(pa_a + dv.PAGE_SIZE - 24, desc[:24])
    dev.mem_write(pa_b, desc[24:])
    dev.mem_write(pa_a + dv.PAGE_SIZE, b"\xEE" * 24)  # what one physical read would see
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(va_a + dv.PAGE_SIZE - 24)
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)
    assert dev.mem_read(out_pa, 28) == words_le(params[1:])


@pytest.mark.parametrize("chained", [False, True], ids=["unflushed", "same-chain"])
def test_descriptor_reads_a_word_an_earlier_job_stored(chained):
    # the first job stores into the second job's descriptor; the store is
    # buffered, in writeback or in the chain's own stores, and the second
    # descriptor must see it before any flush
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    second = rig.job(store_params_shader(out_va), [0, 1, 2, 3, 4, 5, 6, 7])
    rig.map_at(second, rig.FIRST_DATA_PA + second - rig.VA_BASE,
               Perm.READ | Perm.WRITE | Perm.EXEC)
    first = rig.job(store_const_shader(second + 44, 0xC0FFEE), [],
                    next_va=second if chained else 0)
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(first)
    dev.tick(10_000_000)
    if not chained:
        assert rd(dev, "JOB_STATUS") == dv.JOB_DONE and dev.writeback
        rig.kick(second)
        dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)
    assert dev.mem_read(out_pa, 28) == words_le([1, 2, 3, 4, 5, 6, 0xC0FFEE])


def test_seed_changes_timing_but_not_data():
    finish, datas = [], []
    for seed in (1, 2, 3):
        dev = Device(env_seed=seed)
        rig = _Rig(dev)
        out_va, out_pa = run_store_job(dev, rig, value=77)
        events = dev.tick(10_000_000)
        wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
        dev.tick(10_000_000)
        finish.append(next(e.t_ns for e in events if e.bits & dv.IRQ_JOB_DONE))
        datas.append(dev.mem_read(out_pa, 4))
    assert len(set(datas)) == 1
    assert len(set(finish)) > 1


def test_determinism_under_identical_seed_and_inputs():
    import random as _r

    def drive(dev):
        rig = _Rig(dev)
        rng = _r.Random(99)
        states = []
        out_va, out_pa = run_store_job(dev, rig, value=5)
        for _ in range(40):
            dev.tick(rng.randint(0, 2000))
            states.append((dev.vclock_ns, rd(dev, "JOB_STATUS"),
                           rd(dev, "GPU_IRQ_RAWSTAT"), rd(dev, "GPU_STATUS")))
        return states

    assert drive(Device(env_seed=11)) == drive(Device(env_seed=11))


# -- chain memory path ------------------------------------------------------------------

LAST_PAGE_PA = dv.MEM_BYTES - dv.PAGE_SIZE


def test_device_construction_allocates_no_arena():
    tracemalloc.start()
    try:
        Device()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def access_last_page_job(dev, rig, offset, store):
    """Kick one job that loads from (or stores to) ``offset`` in a VA page
    mapped to the last physical page."""
    va, _ = rig.map_page(Perm.READ | Perm.WRITE)
    rig.map_at(va, LAST_PAGE_PA, Perm.READ | Perm.WRITE)
    a = Asm()
    a.ldi(0, va + offset)
    a.ldi(1, 0xA5A5A5A5)
    if store:
        a.st(0, 1)
    else:
        a.ld(1, 0)
    a.halt()
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(rig.job(a.assemble(), []))
    return va + offset


@pytest.mark.parametrize("store", [False, True])
def test_access_past_end_of_memory_is_mmu_fault(store):
    dev = Device()
    rig = _Rig(dev)
    va = access_last_page_job(dev, rig, 0xFFD, store)
    events = dev.tick(10_000_000)
    assert any(e.bits & dv.IRQ_MMU_FAULT for e in events)
    assert rd(dev, "JOB_STATUS") == dv.JOB_MMU_FAULT
    assert rd(dev, "MMU_FAULT_ADDR") == va
    assert dev.writeback == {}
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)


@pytest.mark.parametrize("store", [False, True])
def test_last_word_of_memory_is_accessible(store):
    dev = Device()
    rig = _Rig(dev)
    access_last_page_job(dev, rig, 0xFFC, store)
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)
    expect = b"\xa5" * 4 if store else b"\x00" * 4
    assert dev.mem_read(dv.MEM_BYTES - 4, 4) == expect


# Byte-wise reference model of a job's loads and stores. Three VA pages map
# to two scattered physical pages and the last one; each word access
# translates its first byte only and touches the next three physical bytes.
DATA_VA = 0x0050_0000
DATA_PAS = (0x20000, 0x31000, LAST_PAGE_PA)
RESULT_VA, RESULT_PA = 0x0060_0000, 0x50000
# mostly read-write, so that most jobs run to the end instead of faulting
PERM_CHOICES = (Perm.READ, Perm.WRITE) + (Perm.READ | Perm.WRITE,) * 4

# few distinct offsets, so that loads often overlap earlier stores
mem_ops = st.lists(st.tuples(
    st.sampled_from(("ld", "st")),
    st.integers(0, len(DATA_PAS) - 1),
    st.sampled_from((0, 1, 3, 4, 6, dv.PAGE_SIZE - 6, dv.PAGE_SIZE - 4,
                     dv.PAGE_SIZE - 3, dv.PAGE_SIZE - 1)),
    st.integers(0, dv.U32)), max_size=12)


def model_job(ops, pages, mem_byte, writeback):
    """-> ("fault", va) or ("done", stores) for one job running ``ops``;
    every load's value is stored to the next word of the result page. A
    store whose value is None stores the last value loaded."""
    stores = {}
    got = 0

    def pa_of(va, need):
        pa_base, perms = pages.get(va >> 12, (0, Perm(0)))
        pa = pa_base + (va & 0xFFF)
        if need not in perms or pa + 4 > dv.MEM_BYTES:
            raise MmuFault(va, need)
        return pa

    def store(va, val):
        pa = pa_of(va, Perm.WRITE)
        for i in range(4):
            stores[pa + i] = (val >> 8 * i) & 0xFF

    result_va = RESULT_VA
    try:
        for kind, page, off, val in ops:
            va = DATA_VA + page * dv.PAGE_SIZE + off
            if kind == "st":
                store(va, got if val is None else val)
                continue
            pa = pa_of(va, Perm.READ)
            got = 0
            for i in range(4):
                p = pa + i
                got |= stores.get(p, writeback.get(p, mem_byte(p))) << 8 * i
            store(result_va, got)
            result_va += 4
    except MmuFault as f:
        return "fault", f.va
    return "done", stores


def buffered_bytes(dev):
    """The device's page-keyed writeback as pa -> byte, like the model's."""
    out = {}
    for ppn, (data, mask) in dev.writeback.items():
        for i, m in enumerate(mask):
            assert m in (0, 0xFF)
            if m:
                out[(ppn << dv.PAGE_SHIFT) + i] = data[i]
    return out


def ops_shader(ops):
    a = Asm()
    a.ldi(2, RESULT_VA)
    for kind, page, off, val in ops:
        a.ldi(0, DATA_VA + page * dv.PAGE_SIZE + off)
        if kind == "st":
            a.ldi(1, val)
            a.st(0, 1)
        else:
            a.ld(1, 0)
            a.st(2, 1)
            a.addi(2, 2, 4)
    a.halt()
    return a.assemble()


def run_against_model(sku, order, perms, fill_seed, jobs, alias_perms=None, budget=None):
    """Run ``jobs``, (model ops, shader words) pairs, on a device whose data
    VA pages map to ``order`` (and, with ``alias_perms``, one more VA page
    to ``order[0]``), checking each job against ``model_job``. With a step
    ``budget``, a job may instead run out of steps and store nothing.
    Returns per job its JOB_STATUS, MMU_FAULT_ADDR, instruction count,
    buffered bytes and TLB entries in fill order."""
    dev = Device(sku=sku)
    rig = _Rig(dev)
    rng = random.Random(fill_seed)
    for pa in DATA_PAS:
        dev.mem_write(pa, rng.randbytes(dv.PAGE_SIZE))
        if pa != LAST_PAGE_PA:  # straddling words read the next physical page
            dev.mem_write(pa + dv.PAGE_SIZE, rng.randbytes(16))
    pages = {RESULT_VA >> 12: (RESULT_PA, Perm.READ | Perm.WRITE)}
    rig.map_at(RESULT_VA, RESULT_PA, Perm.READ | Perm.WRITE)
    maps = list(zip(order, perms))
    if alias_perms is not None:
        maps.append((order[0], alias_perms))
    for i, (pa, p) in enumerate(maps):
        va = DATA_VA + i * dv.PAGE_SIZE
        rig.map_at(va, pa, p)
        pages[va >> 12] = (pa, p)
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)

    def mem_byte(p):
        return dev.mem_read(p, 1)[0]

    # the first job's stores stay buffered as writeback, unflushed
    writeback = {}
    seen = []
    for ops, words in jobs:
        expect = model_job(ops, pages, mem_byte, writeback)
        desc = rig.job(words, [])
        with mock.patch.object(dv, "SHADER_STEP_BUDGET", budget or dv.SHADER_STEP_BUDGET):
            rig.kick(desc)
        count = dev._pending_job.instr_count
        dev.tick(10_000_000)
        status = rd(dev, "JOB_STATUS")
        seen.append((status, rd(dev, "MMU_FAULT_ADDR"), count, buffered_bytes(dev),
                     list(dev.tlb.items())))
        out_of_steps = budget is not None and status == dv.JOB_BAD_STATE
        if expect[0] == "fault" and not out_of_steps:
            assert status == dv.JOB_MMU_FAULT
            assert rd(dev, "MMU_FAULT_ADDR") == expect[1]
        elif not out_of_steps:
            assert status == dv.JOB_DONE
            writeback = {**writeback, **expect[1]}
        assert buffered_bytes(dev) == writeback
    dev.take_dirty_pages()  # the jobs' descriptors and shaders
    # the flush costs its bytes, whatever words they sit in
    jitter = random.Random()
    jitter.setstate(dev.rng.getstate())
    cost = dv.FLUSH_BASE_COST_NS + dv.FLUSH_BYTE_COST_NS * len(writeback)
    finish = dev.vclock_ns + round(cost * jitter.uniform(dv.JITTER_LO, dv.JITTER_HI))
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    if writeback:
        assert dev.next_event_ns() == finish
    dev.tick(10_000_000)
    for p, b in writeback.items():
        assert dev.mem_read(p, 1)[0] == b
    # the flush logs exactly the pages its bytes land on, straddled next
    # pages included; a faulted job's stores land nowhere
    assert dev.take_dirty_pages() == {p >> dv.PAGE_SHIFT for p in writeback}
    return seen


@settings(max_examples=150, deadline=None)
@given(sku=st.sampled_from((SKU_A, SKU_B)), order=st.permutations(DATA_PAS),
       perms=st.lists(st.sampled_from(PERM_CHOICES), min_size=3, max_size=3),
       fill_seed=st.integers(0, 2 ** 32), first=mem_ops, second=mem_ops)
def test_chain_loads_and_stores_match_bytewise_model(sku, order, perms, fill_seed,
                                                     first, second):
    run_against_model(sku, order, perms, fill_seed,
                      [(first, ops_shader(first)), (second, ops_shader(second))])


# One load and one store per iteration, each stepping by its own stride from
# its own start in data pages 1 or 2; every load's value goes to the result
# page. Loops run compiled from their second iteration on.
loop_access = st.tuples(st.integers(1, 2), st.sampled_from(
    (0, 1, 4, dv.PAGE_SIZE - 64, dv.PAGE_SIZE - 62, dv.PAGE_SIZE - 3)),
    st.sampled_from((-4, 0, 1, 3, 4, 4, 4, 8)))
mem_loops = st.tuples(loop_access, loop_access, st.integers(0, dv.U32),
                      st.integers(0, dv.U32), st.integers(1, 40))


def loop_job(loop):
    """(model ops, shader words) of one ``mem_loops`` loop."""
    (ld_page, ld_off, ld_step), (st_page, st_off, st_step), val, val_step, n = loop
    ld_va = DATA_VA + ld_page * dv.PAGE_SIZE + ld_off
    st_va = DATA_VA + st_page * dv.PAGE_SIZE + st_off
    a = Asm()
    a.ldi(0, ld_va); a.ldi(1, st_va); a.ldi(2, RESULT_VA); a.ldi(3, n)
    a.ldi(4, val); a.ldi(6, val_step)
    a.label("loop")
    a.ld(5, 0); a.st(2, 5); a.addi(2, 2, 4)
    a.st(1, 4); a.add(4, 4, 6)
    a.addi(0, 0, ld_step); a.addi(1, 1, st_step)
    a.addi(3, 3, -1); a.bnz(3, "loop")
    a.halt()
    ops = []
    for i in range(n):
        for kind, va, v in (("ld", ld_va + i * ld_step, 0),
                            ("st", st_va + i * st_step, (val + i * val_step) & dv.U32)):
            ops.append((kind, (va - DATA_VA) >> 12, (va - DATA_VA) & dv.PAGE_MASK, v))
    return ops, a.assemble()


@settings(max_examples=150, deadline=None)
@given(sku=st.sampled_from((SKU_A, SKU_B)), order=st.permutations(DATA_PAS),
       perms=st.lists(st.sampled_from(PERM_CHOICES), min_size=4, max_size=4),
       fill_seed=st.integers(0, 2 ** 32), first=mem_ops, loop=mem_loops)
def test_compiled_loops_match_bytewise_model(sku, order, perms, fill_seed, first, loop):
    # data page 3 aliases page 0's physical page: a store through one must
    # show in loads through the other
    run_against_model(sku, order, perms[:3], fill_seed,
                      [(first, ops_shader(first)), loop_job(loop)], alias_perms=perms[3])


# Affine loops, which run in bulk from BULK_MIN_ITERATIONS iterations on:
# each iteration loads a word, stores it to the result page and stores the
# loaded word (a copy) or a loop invariant to a second span; after the loop
# the address registers, the counter and the last loaded word go to the
# result page too. Spans start anywhere in the data pages, cross page
# edges, run into the unmapped page past the alias page, or sit over the
# load span, the same element in place or shifted, through either alias.
# Two stores before the loop leave partial words, unless aligned.
DATA_OFFSETS = (0, 4, 8, 0x800, dv.PAGE_SIZE - 64, dv.PAGE_SIZE - 8, dv.PAGE_SIZE - 4,
                1, dv.PAGE_SIZE - 62, dv.PAGE_SIZE - 3)
FLOOR = shader.BULK_MIN_ITERATIONS
affine_loops = st.tuples(
    st.integers(0, 3), st.sampled_from(DATA_OFFSETS),
    st.one_of(st.tuples(st.integers(0, 3), st.sampled_from(DATA_OFFSETS)),
              st.sampled_from((0, 4, -4, 1, 3 * dv.PAGE_SIZE, -3 * dv.PAGE_SIZE))),
    st.one_of(st.sampled_from((16, FLOOR, FLOOR + 1, FLOOR + 2, 300)), st.integers(1, 600)),
    st.booleans(), st.booleans(), st.integers(0, dv.U32),
    st.sampled_from((None, None, None, (0, 1), (2, dv.PAGE_SIZE - 2), (1, 0))))


def affine_job(loop):
    """(model ops, shader words) of one ``affine_loops`` loop."""
    ld_page, ld_off, st_at, n, ld_first, copy, const, pre = loop
    ld_va = DATA_VA + ld_page * dv.PAGE_SIZE + ld_off
    st_va = ld_va + st_at if isinstance(st_at, int) else (
        DATA_VA + st_at[0] * dv.PAGE_SIZE + st_at[1])
    copy = copy and ld_first  # a store before the load would read last iteration's word

    def at(va):
        return (va - DATA_VA) >> 12, (va - DATA_VA) & dv.PAGE_MASK

    a = Asm()
    a.ldi(0, ld_va); a.ldi(1, st_va); a.ldi(2, RESULT_VA); a.ldi(3, n); a.ldi(6, const)
    ops = []
    if pre is not None:
        pre_va = DATA_VA + pre[0] * dv.PAGE_SIZE + pre[1]
        a.ldi(7, pre_va); a.st(7, 6); a.addi(7, 7, 4); a.st(7, 6)
        ops += [("st", *at(pre_va), const), ("st", *at(pre_va + 4), const)]
    a.label("loop")
    if ld_first:
        a.ld(4, 0); a.st(2, 4); a.st(1, 4 if copy else 6)
    else:
        a.st(1, 6); a.ld(4, 0); a.st(2, 4)
    a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, 4); a.addi(3, 3, -1)
    a.bnz(3, "loop")
    for r in (0, 1, 3, 4):
        a.st(2, r); a.addi(2, 2, 4)
    a.halt()
    for i in range(n):
        load = ("ld", *at(ld_va + 4 * i), 0)
        store = ("st", *at(st_va + 4 * i), None if copy else const)
        ops += [load, store] if ld_first else [store, load]
    end = RESULT_VA + 4 * n
    for k, val in enumerate((ld_va + 4 * n, st_va + 4 * n, 0, None)):
        ops.append(("st", *at(end + 4 * k), val if val is None else val & dv.U32))
    return ops, a.assemble()


# read-write more often than PERM_CHOICES, so that more loops get past a walk
@settings(max_examples=200, deadline=None)
@given(sku=st.sampled_from((SKU_A, SKU_B)), order=st.permutations(DATA_PAS),
       perms=st.lists(st.sampled_from(PERM_CHOICES + (Perm.READ | Perm.WRITE,) * 6),
                      min_size=4, max_size=4),
       fill_seed=st.integers(0, 2 ** 32), first=st.just([]) | mem_ops, loop=affine_loops,
       budget=st.none() | st.integers(100, 6000))
def test_bulk_loops_match_bytewise_model_and_compiled_loops(sku, order, perms, fill_seed,
                                                            first, loop, budget):
    # the first job's stores stay buffered, often inside the loop's spans
    args = (sku, order, perms[:3], fill_seed, [(first, ops_shader(first)), affine_job(loop)],
            perms[3], budget)
    bulk = run_against_model(*args)
    with mock.patch.object(shader, "BULK_MIN_ITERATIONS", 1 << 32):
        assert run_against_model(*args) == bulk


RW = Perm.READ | Perm.WRITE
P = dv.PAGE_SIZE


# (first job's ops, affine loop, step budget, bulk outcomes, JOB_STATUS)
@pytest.mark.parametrize("first, loop, budget, outcomes, status", [
    ([], (1, 0, (2, 0), 300, True, True, 7, None), None, [True], dv.JOB_DONE),
    ([], (1, 8, (2, 0), 300, True, False, 7, None), None, [True], dv.JOB_DONE),  # invariant
    ([], (1, 0, 0, 300, True, True, 7, None), None, [True], dv.JOB_DONE),  # in place
    ([], (0, 8, 3 * P, 300, True, True, 7, None), None, [True], dv.JOB_DONE),  # via alias
    ([], (1, 1, (2, 0), 300, True, True, 7, None), None, [False], dv.JOB_DONE),  # unaligned ld
    ([], (1, 0, 0, 300, False, False, 7, None), None, [False], dv.JOB_DONE),  # st before ld
    ([], (1, 0, 4, 300, True, True, 7, None), None, [False], dv.JOB_DONE),  # shifted
    ([], (1, 0, 1, 300, True, True, 7, None), None, [False], dv.JOB_DONE),  # unaligned st
    ([], (1, 0, (2, 0), 300, True, True, 7, (0, 1)), None, [False], dv.JOB_DONE),  # partial
    ([], (1, 0, (2, 1), 300, True, True, 7, (2, 0)), None, [False],
     dv.JOB_DONE),  # unaligned st over full words: no partial word yet
    ([], (1, P - 64, 0, 300, False, False, 7, None), None, [False],
     dv.JOB_DONE),  # falls back after walking the store's next page: it is buffered
    ([], (0, P - 64, (2, P - 32), 300, True, True, 7, None), None, [True],
     dv.JOB_DONE),  # the store reaches a new page before the load does
    ([("st", 1, 0x800, 5)], (1, 0x400, (2, 0), 300, True, True, 7, None), None, [False],
     dv.JOB_DONE),  # the first job's writeback
    ([], (1, 0, RESULT_VA + 4 - DATA_VA - P, 300, True, False, 7, None), None, [False],
     dv.JOB_DONE),  # two stores to the same words, a word apart
    ([], (1, 0, (2, 0), 300, True, True, 7, None), 2000, [], dv.JOB_BAD_STATE),
    ([], (1, 0, (2, 0), 300, True, True, 7, None), 2800, [True], dv.JOB_DONE),
    ([], (3, P - 64, (2, 0), 300, True, True, 7, None), None, [], dv.JOB_MMU_FAULT),
    ([], (1, 0, (3, P - 64), 300, True, True, 7, None), None, [], dv.JOB_MMU_FAULT),
])
def test_bulk_path_cases(first, loop, budget, outcomes, status):
    # data page 4 is not mapped: the last two cases walk into it mid-span
    check_bulk_case(DATA_PAS, first, loop, budget, outcomes, status)


def test_bulk_path_refuses_a_store_ahead_of_the_load_through_other_aliases():
    # data pages 0, 2 and 3 map one physical page. The store enters it
    # through page 2 at offset 0 on iteration 8, the load through page 3 at
    # offset 0 on iteration 32, and reads what the store wrote.
    order = (DATA_PAS[0], DATA_PAS[1], DATA_PAS[0])
    check_bulk_case(order, [], (2, P - 128, (1, P - 32), 300, True, True, 7, None), None,
                    [False], dv.JOB_DONE)


def test_bulk_path_refuses_spans_that_share_only_an_edge_word():
    # 300 iterations, the last 299 offered in bulk: the store span ends on
    # the load span's first word
    check_bulk_case(DATA_PAS, [], (1, 0x800, -4 * 298, 300, True, True, 7, None), None,
                    [False], dv.JOB_DONE)


def check_bulk_case(order, first, loop, budget, outcomes, status):
    """Run ``first`` and then ``loop`` against the model with the bulk path
    on and off: the bulk runs end in ``outcomes`` and the loop's job in
    ``status``, and the two runs match."""
    args = (SKU_A, order, (RW,) * 3, 5, [(first, ops_shader(first)), affine_job(loop)],
            RW, budget)
    results = []
    with count_bulk_runs(results):
        bulk = run_against_model(*args)
    assert results == outcomes
    assert bulk[-1][0] == status
    with mock.patch.object(shader, "BULK_MIN_ITERATIONS", 1 << 32):
        assert run_against_model(*args) == bulk


def count_bulk_runs(results):
    """Patch the chain's ``execute`` to append each bulk run's outcome
    (True: ran, False: fell back) to ``results``."""
    real = dv.execute

    def execute(*args):
        *rest, run_bulk = args

        def counted(plan, regs, n):
            results.append(run_bulk(plan, regs, n))
            return results[-1]
        return real(*rest, counted)
    return mock.patch.object(dv, "execute", execute)


# the first iteration runs before the back-edge offers the rest
@pytest.mark.parametrize("n, in_place, expect", [
    (8192, False, [True]),     # vecadd-16k's shape
    (16, False, []),           # chain-64's: below the floor, never offered
    (FLOOR, False, []),
    (FLOOR + 1, False, [True]),
    (100, True, [True]),       # the first iteration already stored to the span's page
])
def test_bulk_path_runs_for_long_affine_loops(n, in_place, expect):
    dev = Device()
    rig = _Rig(dev)
    pages = -(-(3 * n * 4) // dv.PAGE_SIZE) + 1
    va = [rig.map_page(Perm.READ | Perm.WRITE)[0] for _ in range(pages)][0]
    src = va + 4
    out = src if in_place else src + 2 * n * 4
    inputs = random.Random(n).randbytes(2 * n * 4)
    rig.put(src, inputs)
    words, instr, params = emit_shader(Layer("vec_add", (), 2 * n, n), src, out)
    results = []
    with count_bulk_runs(results):
        rig.kick(rig.job(words, params))
    assert dev._pending_job.instr_count == instr
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    assert results == expect
    flush(dev)
    x = struct.unpack(f"<{2 * n}I", inputs)
    assert dev.mem_read(rig.FIRST_DATA_PA + out - va, 4 * n) == struct.pack(
        f"<{n}I", *((x[i] + x[n + i]) & dv.U32 for i in range(n)))


def test_unaligned_store_merges_into_a_full_word():
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    rig.kick(rig.job(store_const_shader(out_va, 0x11223344), []))
    dev.tick(10_000_000)
    a = Asm()
    # into a word of the writeback, then into one the same job wrote
    a.ldi(1, 0xAABBCCDD); a.ldi(0, out_va + 1); a.st(0, 1)
    a.ldi(0, out_va); a.ld(2, 0); a.ldi(0, out_va + 8); a.st(0, 2)
    a.ldi(0, out_va + 12); a.ldi(3, 0x55667788); a.st(0, 3)
    a.ldi(0, out_va + 14); a.st(0, 1)
    a.halt()
    rig.kick(rig.job(a.assemble(), []))
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    assert buffered_bytes(dev) == bytes_at(
        out_pa, "44ddccbb aa...... 44ddccbb 8877ddcc bbaa....")
    flush(dev)
    assert dev.mem_read(out_pa, 20) == bytes.fromhex(
        "44ddccbb aa000000 44ddccbb 8877ddcc bbaa0000")


def bytes_at(pa, text):
    """pa -> byte of the hex bytes in ``text`` from ``pa`` on, like
    ``buffered_bytes``; ``..`` is a byte not buffered, spaces are ignored."""
    text = text.replace(" ", "")
    return {pa + i // 2: int(text[i:i + 2], 16) for i in range(0, len(text), 2)
            if text[i:i + 2] != ".."}


# -- dirty-page log -----------------------------------------------------------------

def test_mem_write_logs_every_page_it_touches():
    dev = Device()
    assert dev.take_dirty_pages() == set()
    dev.mem_write(0x5000, b"x")
    dev.mem_write(0x7FFE, b"abcd")  # straddles pages 7 and 8
    dev.mem_write(0x9000, b"")
    assert dev.take_dirty_pages() == {5, 7, 8}
    assert dev.take_dirty_pages() == set()
    dev.mem_write(0xA000, bytes(3 * dv.PAGE_SIZE))
    assert dev.take_dirty_pages() == {0xA, 0xB, 0xC}


def flush(dev):
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    dev.tick(10_000_000)


def test_flush_logs_a_straddled_next_page():
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    rig.map_page(Perm.READ)  # the next physical page, not mapped writable
    desc = rig.job(store_const_shader(out_va + dv.PAGE_SIZE - 2, 0xA1B2C3D4), [])
    rig.kick(desc)
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    dev.take_dirty_pages()
    snap = dev.snapshot()
    flush(dev)
    ppn = out_pa >> dv.PAGE_SHIFT
    assert dev.take_dirty_pages() == {ppn, ppn + 1}
    assert dev.mem_read(out_pa + dv.PAGE_SIZE - 2, 4) == (0xA1B2C3D4).to_bytes(4, "little")
    # a restored writeback logs the same pages when it commits again
    dev.restore(snap)
    flush(dev)
    assert dev.take_dirty_pages() == {ppn, ppn + 1}


def test_snapshots_share_no_buffered_page_with_the_device():
    # the snapshot's writeback holds a word across a page edge, part on
    # each page; the second job merges into both pages and adds a third,
    # which the writeback adopts. It merges first into the pages the
    # snapshot was taken from, then into restored ones; each restore must
    # bring back the first job's bytes alone.
    dev = Device()
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    rig.map_page(Perm.READ | Perm.WRITE)
    third_va, third_pa = rig.map_page(Perm.READ | Perm.WRITE)
    rig.kick(rig.job(store_const_shader(out_va + dv.PAGE_SIZE - 2, 0xA1B2C3D4), []))
    dev.tick(10_000_000)
    snap = dev.snapshot()
    a = Asm()
    a.ldi(1, 0x55555555)
    for va in (out_va + dv.PAGE_SIZE - 4, out_va + dv.PAGE_SIZE, third_va):
        a.ldi(0, va); a.st(0, 1)
    a.halt()
    second = rig.job(a.assemble(), [])
    ppn = out_pa >> dv.PAGE_SHIFT
    for _ in range(2):
        rig.kick(second)
        dev.tick(10_000_000)
        assert buffered_bytes(dev) == {**bytes_at(out_pa + dv.PAGE_SIZE - 4, "55555555 55555555"),
                                       **bytes_at(third_pa, "55555555")}
        dev.restore(snap)
        assert rd(dev, "GPU_STATUS") & dv.STATUS_DIRTY
        dev.take_dirty_pages()
        flush(dev)
        assert not rd(dev, "GPU_STATUS") & dv.STATUS_DIRTY
        assert dev.mem_read(out_pa + dv.PAGE_SIZE - 4, 8) == bytes.fromhex("0000d4c3 b2a10000")
        assert dev.mem_read(third_pa, 4) == bytes(4)
        assert dev.take_dirty_pages() == {ppn, ppn + 1}
        dev.restore(snap)
    # a pending job's pages are copies too: the writeback adopts the third
    # page from the job, and a later job merges into it
    rig.kick(second)
    pending = dev.snapshot()
    dev.tick(10_000_000)
    rig.kick(rig.job(store_const_shader(third_va, 0x77777777), []))
    dev.tick(10_000_000)
    dev.restore(pending)
    dev.tick(10_000_000)
    flush(dev)
    assert dev.mem_read(third_pa, 4) == bytes.fromhex("55555555")


def test_faulted_job_logs_nothing():
    dev = Device()
    rig = _Rig(dev)
    out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
    a = Asm()
    a.ldi(0, out_va); a.ldi(1, 7); a.st(0, 1)  # a store that is lost...
    a.ldi(0, 0x0090_0000); a.ld(1, 0)           # ...when an unmapped load faults
    a.halt()
    rig.kick(rig.job(a.assemble(), []))
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_MMU_FAULT
    dev.take_dirty_pages()
    flush(dev)
    assert dev.take_dirty_pages() == set()


def test_written_end_bounds_host_writes_and_flush_commits():
    # each write raises the bound to the end of its bytes, never lowers it,
    # and every byte past it is still zero
    dev = Device()
    assert dev.written_end == 0
    rig = _Rig(dev)
    assert dev.written_end == rig.L1_PA + 8  # the L1 entry of slot 1
    out_va, high_pa = rig.VA_BASE + 0x200 * dv.PAGE_SIZE, dv.MEM_BYTES - 4 * dv.PAGE_SIZE
    rig.map_at(out_va, high_pa, Perm.READ | Perm.WRITE)
    rig.kick(rig.job(store_const_shader(out_va + 0x100, 0xA1B2C3D4), []))
    dev.tick(10_000_000)
    assert rd(dev, "JOB_STATUS") == dv.JOB_DONE
    host_end = dev.written_end
    assert host_end < high_pa  # the store is buffered, not written
    snap = dev.snapshot()
    flush(dev)
    assert dev.written_end == high_pa + 0x104
    dev.mem_write(rig.L1_PA, bytes(4))
    dev.restore(snap)
    assert dev.written_end == high_pa + 0x104
    tail = dv.MEM_BYTES - dev.written_end
    assert dev.mem_read(dev.written_end, tail) == bytes(tail)


def test_flush_commits_what_a_merge_or_a_restore_left_buffered():
    # the flush finds each page's runs when it starts; a job finishing while
    # it is in flight merges new runs into a page, and a restore brings back
    # a writeback whose runs it never saw
    dev = Device(env_seed=3)
    rig = _Rig(dev)
    out_va, out_pa = rig.map_page(Perm.READ | Perm.WRITE)
    first = rig.job(store_const_shader(out_va, 0x11111111), [])
    second = rig.job(store_const_shader(out_va + 0x40, 0x22222222), [])
    rig.kick(first)
    dev.tick(10_000_000)
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    rig.kick(second)
    assert dev._pending_job.finish_ns < dev._pending_flush.finish_ns
    dev.tick(10_000_000)
    assert dev.mem_read(out_pa, 4) == (0x11111111).to_bytes(4, "little")
    assert dev.mem_read(out_pa + 0x40, 4) == (0x22222222).to_bytes(4, "little")
    # a flush in flight over the second store, snapshotted; RAM then loses
    # the store, as an owner's restore of RAM would undo it
    rig.kick(second)
    dev.tick(10_000_000)
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    snap = dev.snapshot()
    dev.tick(10_000_000)
    dev.mem_write(out_pa + 0x40, bytes(4))
    rig.kick(first)
    dev.tick(10_000_000)
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)  # finds the runs of the first store
    dev.restore(snap)
    dev.tick(10_000_000)
    assert dev.mem_read(out_pa + 0x40, 4) == (0x22222222).to_bytes(4, "little")


# -- snapshot / restore ----------------------------------------------------------------

def test_snapshot_roundtrip_preserves_status():
    dev = Device()
    rig = _Rig(dev)
    run_store_job(dev, rig)
    before = rd(dev, "GPU_STATUS")
    snap = dev.snapshot()
    dev.tick(10_000_000)
    dev.restore(snap)
    assert rd(dev, "GPU_STATUS") == before


def test_restore_mid_chain_replays_same_finish_time():
    dev = Device(env_seed=4)
    rig = _Rig(dev)
    run_store_job(dev, rig)
    dev.tick(50)  # partway into the job
    snap = dev.snapshot()
    first = next(e.t_ns for e in dev.tick(10_000_000) if e.bits & dv.IRQ_JOB_DONE)
    dev.restore(snap)
    second = next(e.t_ns for e in dev.tick(10_000_000) if e.bits & dv.IRQ_JOB_DONE)
    assert first == second


def test_restores_resume_the_rng_stream_below_and_above_the_rebase_bound():
    # each round: kick (one jitter draw), JOB_PROGRESS reads, the job's end,
    # flush (a second draw), more reads. Two rounds draw more words than
    # the bound, so the later snapshots rest on fresh base states
    big = dv._RNG_REBASE_WORDS + 100
    rounds = [(1, 0), (3, 5), (0, 2), (big, 1), (7, 300), (2, big), (0, 0), (4, 4)]
    dev = Device(env_seed=9)
    rig = _Rig(dev)
    out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
    desc = rig.job(store_const_shader(out_va, 0xBEEF), [])

    def one_round(between, after):
        rig.kick(desc)
        seen = [dev.next_event_ns()]  # the job's finish_ns
        seen += [rd(dev, "JOB_PROGRESS") for _ in range(between)]
        dev.tick(10_000_000)
        wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
        seen.append(dev.next_event_ns())  # the flush's finish_ns
        dev.tick(10_000_000)
        return seen + [rd(dev, "JOB_PROGRESS") for _ in range(after)]

    snaps, straight = [], []
    for between, after in rounds:
        snaps.append(dev.snapshot())
        straight.append(one_round(between, after))
    assert len({s.rng_state[0] for s in snaps}) == 3  # two rebases
    assert any(s.rng_state[1] for s in snaps[4:])  # words drawn over a fresh base
    for k in [*reversed(range(len(rounds))), 3, 0, 6, 5, 1, 7, 2, 4]:  # out of order, twice
        dev.restore(snaps[k])
        assert [one_round(*r) for r in rounds[k:]] == straight[k:], k


def test_restore_rejects_other_sku():
    snap = Device(sku=SKU_A).snapshot()
    with pytest.raises(SkuMismatch):
        Device(sku=SKU_B).restore(snap)


# -- fault injection -------------------------------------------------------------------

def test_corrupt_pte_causes_mmu_fault_on_kick():
    dev = Device()
    rig = _Rig(dev)
    out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
    desc = rig.job(store_const_shader(out_va, 9), [])
    dev.corrupt_pte(out_va)
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(desc)
    events = dev.tick(10_000_000)
    assert any(e.bits & dv.IRQ_MMU_FAULT for e in events)
    assert rd(dev, "JOB_STATUS") == dv.JOB_MMU_FAULT
    assert rd(dev, "MMU_FAULT_ADDR") == out_va


def test_offline_cores_diverges_status_reads():
    dev = Device(sku=SKU_B)
    before = (rd(dev, "GPU_STATUS"), rd(dev, "PWR_CORES_ON"))
    dev.offline_cores(SKU_B.full_core_mask)
    after = (rd(dev, "GPU_STATUS"), rd(dev, "PWR_CORES_ON"))
    assert before != after
    assert after[1] == 0


def test_offline_all_cores_stalls_jobs():
    dev = Device()
    rig = _Rig(dev)
    dev.offline_cores(SKU_A.full_core_mask)
    run_store_job(dev, rig)
    assert dev.tick(50_000_000) == []
    assert rd(dev, "JOB_STATUS") == dv.JOB_RUNNING


def test_stall_zero_changes_nothing():
    dev = Device(env_seed=2)
    rig = _Rig(dev)
    run_store_job(dev, rig)
    t = dev.next_event_ns()
    dev.stall(0)
    assert dev.next_event_ns() == t


def test_stall_delays_active_job():
    dev = Device(env_seed=2)
    rig = _Rig(dev)
    run_store_job(dev, rig)
    t = dev.next_event_ns()
    dev.stall(5000)
    assert dev.next_event_ns() == t + 5000


def test_next_event_is_the_earlier_of_job_and_flush():
    dev = Device(env_seed=2)
    rig = _Rig(dev)
    out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
    wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
    rig.kick(rig.job(store_const_shader(out_va, 1), []))
    dev.tick(10_000_000)
    assert dev.next_event_ns() is None and dev.writeback
    a = Asm()  # about 2,000 instructions: the job outlasts the flush
    a.ldi(0, 1000)
    a.label("loop")
    a.addi(0, 0, -1)
    a.bnz(0, "loop")
    a.halt()
    rig.kick(rig.job(a.assemble(), []))
    wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
    flush, job = dev._pending_flush.finish_ns, dev._pending_job.finish_ns
    assert flush < job
    assert dev.next_event_ns() == flush
    dev.tick(flush - dev.vclock_ns)
    assert dev.next_event_ns() == job


def reference_tick(dev, dt):
    """``Device.tick`` as a loop over ``next_event_ns()``, with no cached
    time."""
    end = dev.vclock_ns + dt
    events = []
    while True:
        t = dev.next_event_ns()
        if t is None or t > end:
            break
        dev.vclock_ns = max(dev.vclock_ns, t)
        events.extend(dev._complete_due(t))
    dev.vclock_ns = end
    return events


device_ops = st.lists(st.one_of(
    st.tuples(st.just("kick"), st.integers(0, 2)),  # a store, a long loop, a fault
    st.tuples(st.just("tick"), st.integers(0, 3000)),
    st.tuples(st.just("stall"), st.integers(0, 2000)),
    st.sampled_from([("flush",), ("snapshot",), ("restore",), ("reset",), ("offline",)])),
    max_size=30)


@settings(max_examples=150, deadline=None)
@given(ops=device_ops, seed=st.integers(0, 3))
def test_the_cached_next_event_time_follows_every_operation(ops, seed):
    # tick tests one cached time: after every operation it equals
    # next_event_ns(), and a twin device ticked by the reference loop sees
    # the same interrupts at the same times
    twins = []
    for dev in (Device(env_seed=seed), Device(env_seed=seed)):
        rig = _Rig(dev)
        out_va, _ = rig.map_page(Perm.READ | Perm.WRITE)
        a = Asm()
        a.ldi(0, 500)
        a.label("loop")
        a.addi(0, 0, -1)
        a.bnz(0, "loop")
        a.halt()
        jobs = [rig.job(store_const_shader(out_va, 7), []), rig.job(a.assemble(), []),
                rig.job(store_const_shader(rig.next_va + 64 * dv.PAGE_SIZE, 7), [])]
        wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
        twins.append([dev, rig, jobs, dev.snapshot()])
    for op in ops:
        got = []
        for twin in twins:
            dev, rig, jobs, snap = twin
            if op[0] == "kick":
                rig.kick(jobs[op[1]])
            elif op[0] == "tick":
                got.append(dev.tick(op[1]) if twin is twins[0] else reference_tick(dev, op[1]))
            elif op[0] == "stall":
                dev.stall(op[1])
            elif op[0] == "flush":
                wr(dev, "GPU_CMD", dv.CMD_CACHE_FLUSH)
            elif op[0] == "snapshot":
                twin[3] = dev.snapshot()
            elif op[0] == "restore":
                dev.restore(snap)
            elif op[0] == "reset":  # and re-arm the MMU and the mask, as a driver does
                wr(dev, "GPU_CMD", dv.CMD_SOFT_RESET)
                wr(dev, "MMU_TABLE_BASE_LO", rig.L1_PA)
                wr(dev, "GPU_IRQ_MASK", dv.IRQ_ALL)
            else:
                dev.offline_cores(dev.sku.full_core_mask)
        dev, ref = twins[0][0], twins[1][0]
        assert dev._next_ns == dev.next_event_ns() == ref.next_event_ns(), op
        assert (dev.vclock_ns, dev.job_state, dev.irq_rawstat) == (
            ref.vclock_ns, ref.job_state, ref.irq_rawstat), op
        if got:
            assert got[0] == got[1], op


def test_register_map_invariants():
    from gprr.device import Access, RegDef, RegisterMap, StateClass
    with pytest.raises(ValueError):
        RegisterMap((RegDef("A", 0, Access.RO), RegDef("B", 0, Access.RO)))
    with pytest.raises(ValueError):
        RegisterMap((RegDef("A", 0, Access.RO), RegDef("A", 4, Access.RO)))
    with pytest.raises(ValueError):
        RegisterMap((RegDef("N", 0, Access.RW, StateClass.NONDET_READ),))


def test_sku_profile_validation():
    from gprr.device import SkuProfile
    good = dict(sku_id=1, core_count=4,
                perm_bit_layout=(Perm.VALID, Perm.READ, Perm.WRITE, Perm.EXEC),
                expected_mmu_config=0, gpu_id_value=1)
    SkuProfile(**good)
    with pytest.raises(ValueError):
        SkuProfile(**{**good, "core_count": 0})
    with pytest.raises(ValueError):
        SkuProfile(**{**good, "core_count": 33})
    with pytest.raises(ValueError):
        SkuProfile(**{**good, "perm_bit_layout":
                      (Perm.VALID, Perm.VALID, Perm.WRITE, Perm.EXEC)})


def test_perm_encoding_roundtrips_any_subset():
    from hypothesis import given, strategies as st
    from itertools import permutations
    from gprr.device import SkuProfile

    layouts = [tuple(p) for p in permutations(
        (Perm.VALID, Perm.READ, Perm.WRITE, Perm.EXEC))]

    @given(st.sampled_from(layouts), st.integers(0, 15))
    def check(layout, bits):
        sku = SkuProfile(sku_id=1, core_count=1, perm_bit_layout=layout,
                         expected_mmu_config=0, gpu_id_value=1)
        perms = sku.decode_perms(bits)
        assert sku.encode_perms(perms) == bits

    check()


def test_soft_reset_is_absorbing():
    dev = Device(env_seed=6)
    rig = _Rig(dev)
    run_store_job(dev, rig)
    dev.tick(123)
    dev.offline_cores(0x1)
    wr(dev, "GPU_CMD", dv.CMD_SOFT_RESET)
    fresh = Device(env_seed=0)
    wr(fresh, "GPU_CMD", dv.CMD_SOFT_RESET)
    for name in ("GPU_ID", "GPU_STATUS", "GPU_IRQ_RAWSTAT", "GPU_IRQ_MASK",
                 "MMU_CONFIG", "JOB_STATUS", "JOB_AFFINITY", "PWR_CORES_ON"):
        assert rd(dev, name) == rd(fresh, name), name
