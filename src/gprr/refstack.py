"""Reference GPU stack: a mini runtime plus driver that the recorder taps.

The runtime JIT-compiles workload graphs into shader bytecode and job
descriptors, writing both straight into GPU-mapped memory where no driver
accessor sees them (which is what forces the recorder's memory dumps).
The driver owns page tables and registers and submits jobs strictly one
at a time: kick, wait for the completion interrupt, flush the GPU cache,
poll the status register until the flush drains.

Deliberate "unintended" delays (JIT time, memory management, OS jitter)
can be injected so that interval classification has something to remove.
"""

from __future__ import annotations

import enum
import random
import struct
from collections import deque
from dataclasses import dataclass, field

from . import device as dv
from .device import Access, Device, Perm, StateClass
from .shader import Asm

# CPU-side cost charges, in virtual ns. Register pokes are cheap; memory
# movement scales with size.
REG_ACCESS_NS = 20
POLL_PERIOD_NS = 200
COPY_BYTE_NS = 0.1
ZERO_BYTE_NS = 0.05

VA_BASE = 0x0040_0000  # keeps the first buffer out of L1 slot 0

INT32 = struct.Struct("<i")
_ZERO_PAGE = bytes(dv.PAGE_SIZE)


class WorkloadError(Exception):
    """Workload failed on-device; carries the failing layer index."""

    def __init__(self, layer: int, why: str):
        self.layer = layer
        super().__init__(f"layer {layer}: {why}")


class DriverError(Exception):
    pass


class AllocFlags(enum.Flag):
    NONE = 0
    GPU_EXEC = enum.auto()
    CPU_VISIBLE = enum.auto()
    INTERNAL_SCRATCH = enum.auto()


MULTI_OPERAND = {"vec_add", "matmul"}
UNARY = {"scale", "relu", "copy"}


@dataclass(frozen=True)
class Layer:
    op: str
    params: tuple[int, ...]
    in_elems: int
    out_elems: int


@dataclass(frozen=True)
class WorkloadGraph:
    """An unconditional sequence of layer ops over int32 element buffers.

    Multi-operand ops (vec_add, matmul) read their operands packed in one
    buffer, so they are only allowed as the first layer; later layers are
    unary over the previous output.
    """

    layers: tuple[Layer, ...]
    input_elems: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("graph needs at least one layer")
        elems = self.input_elems
        for i, layer in enumerate(self.layers):
            if layer.op in MULTI_OPERAND and i != 0:
                raise ValueError(f"{layer.op} only allowed as the first layer")
            if layer.in_elems != elems:
                raise ValueError(
                    f"layer {i} expects {layer.in_elems} elems, gets {elems}")
            elems = layer.out_elems

    @property
    def output_elems(self) -> int:
        return self.layers[-1].out_elems

    def label(self) -> str:
        parts = []
        for l in self.layers:
            parts.append(l.op if not l.params else
                         l.op + "(" + ",".join(map(str, l.params)) + ")")
        return "+".join(parts)[:64]

    def evaluate(self, input_bytes: bytes) -> bytes:
        """Host reference evaluation; the independent oracle for outputs."""
        if len(input_bytes) != self.input_elems * 4:
            raise ValueError("input length does not match graph")
        vals = [INT32.unpack_from(input_bytes, i * 4)[0]
                for i in range(self.input_elems)]
        for layer in self.layers:
            vals = _eval_layer(layer, vals)
        return b"".join(INT32.pack(_wrap32(v)) for v in vals)


def _wrap32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def _eval_layer(layer: Layer, vals: list[int]) -> list[int]:
    if layer.op == "vec_add":
        n = layer.out_elems
        return [_wrap32(vals[i] + vals[n + i]) for i in range(n)]
    if layer.op == "scale":
        k = layer.params[0]
        return [_wrap32(v * k) for v in vals]
    if layer.op == "relu":
        return [max(v, 0) for v in vals]
    if layer.op == "copy":
        return list(vals)
    if layer.op == "matmul":
        m, n, k = layer.params
        a, b = vals[:m * k], vals[m * k:]
        out = []
        for i in range(m):
            for j in range(n):
                acc = 0
                for l in range(k):
                    acc = _wrap32(acc + _wrap32(a[i * k + l] * b[l * n + j]))
                out.append(acc)
        return out
    raise ValueError(f"unknown op {layer.op}")


def _matmul_input_elems(params: tuple[int, ...]) -> int:
    """The elements of both operands of a matmul of ``(m, n, k)``."""
    if len(params) != 3:
        raise ValueError("matmul takes three dimensions, m n k")
    m, n, k = params
    return m * k + k * n


def make_layer(op: str, params: tuple[int, ...], in_elems: int) -> Layer:
    if op == "vec_add":
        if in_elems % 2:
            raise ValueError("vec_add needs an even packed input")
        return Layer(op, (), in_elems, in_elems // 2)
    if op == "scale":
        if len(params) != 1:
            raise ValueError("scale takes one factor")
        return Layer(op, (params[0],), in_elems, in_elems)
    if op in ("relu", "copy"):
        return Layer(op, (), in_elems, in_elems)
    if op == "matmul":
        need = _matmul_input_elems(params)
        m, n, k = params
        if min(m, n, k) < 1:
            raise ValueError(f"matmul({m},{n},{k}) needs every dimension at least 1")
        if in_elems != need:
            raise ValueError(f"matmul({m},{n},{k}) needs {need} input elems")
        size = 4 * matmul_shader_words(m, n, k)
        if size > dv.SHADER_MAX_BYTES:
            raise ValueError(f"matmul({m},{n},{k}) unrolls to a {size}-byte shader, "
                             f"over the {dv.SHADER_MAX_BYTES}-byte shader limit")
        return Layer(op, (m, n, k), in_elems, m * n)
    raise ValueError(f"unknown op {op}")


def build_graph(specs: list[tuple], input_elems: int) -> WorkloadGraph:
    """specs: [(op, *params), ...] chained from input_elems."""
    layers = []
    elems = input_elems
    for spec in specs:
        op, params = spec[0], tuple(spec[1:])
        layer = make_layer(op, params, elems)
        layers.append(layer)
        elems = layer.out_elems
    return WorkloadGraph(tuple(layers), input_elems)


def parse_workload(text: str) -> WorkloadGraph:
    """Line format: ``input <elems>`` once, then ``layer <op> [params...]``.
    A workload whose first layer is a matmul may leave out ``input``: its
    operands are the input. A bad line is a ValueError that names the line
    and says what is wrong with it."""
    input_elems = input_at = None  # the count and the (lineno, line) that set it
    specs: list[tuple[int, str, str, tuple[int, ...]]] = []  # lineno, line, op, params
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        with dv.naming_line("workload", lineno, raw):
            if parts[0] == "input":
                if len(parts) != 2:
                    raise ValueError("input takes one count")
                input_elems, input_at = int(parts[1], 0), (lineno, raw)
            elif parts[0] == "layer":
                if len(parts) < 2:
                    raise ValueError("layer needs an op")
                specs.append((lineno, raw, parts[1], tuple(int(p, 0) for p in parts[2:])))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
    if input_at is not None:
        with dv.naming_line("workload", *input_at):
            if not 1 <= input_elems <= dv.MEM_BYTES // 4:
                raise ValueError(f"input count {input_elems} is outside "
                                 f"1..{dv.MEM_BYTES // 4}, the words device memory holds")
    elif specs and specs[0][2] == "matmul":
        # make_layer bounds the matmul, and so its operands
        with dv.naming_line("workload", *specs[0][:2]):
            input_elems = _matmul_input_elems(specs[0][3])
    else:
        raise ValueError("workload needs an 'input <elems>' line")
    layers = []
    elems = input_elems
    for lineno, raw, op, params in specs:
        with dv.naming_line("workload", lineno, raw):
            layer = make_layer(op, params, elems)
        layers.append(layer)
        elems = layer.out_elems
    return WorkloadGraph(tuple(layers), input_elems)


@dataclass(frozen=True)
class DelayPolicy:
    """Virtual-time sleeps injected around stack phases. The JIT and
    management sleeps fall between jobs, while the GPU is idle. The OS
    jitter sleeps before every driver access, so some of it falls inside
    device work: the sleep before the JOB_PROGRESS read, right after the
    kick, is inside a running job, and the recorder keeps that gap."""

    jit_ns: int = 0
    mgmt_ns: int = 0
    os_jitter_ns: int = 0


@dataclass
class Allocation:
    tag: str
    gpu_va: int
    len_bytes: int
    n_pages: int
    flags: AllocFlags
    perms: Perm


# ---------------------------------------------------------------------------
# Instrumentable accessor events. The recorder subscribes to exactly this
# stream; everything the runtime does through raw memory stays invisible.
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class PortEvent:
    """One accessor call, as a listener sees it. Not frozen: a frozen
    ``__init__`` sets each of the 14 fields through ``object.__setattr__``,
    about four times the cost of a plain one, and the driver builds one
    per call. Only listeners read events; nothing hashes or mutates them."""

    kind: str            # write | read | poll | wait_irq | map | unmap | pre_kick
    t0: int
    t1: int
    reg: str = ""
    value: int = 0
    state_class: StateClass | None = None
    mask: int = 0
    expect: int = 0
    n_reads: int = 0
    bits: int = 0
    gpu_va: int = 0
    len_bytes: int = 0
    perm_bits: int = 0
    flags: AllocFlags = AllocFlags.NONE


class StackListener:
    """Override any subset; the stack calls these as the run unfolds."""

    def on_port_event(self, ev: PortEvent) -> None: ...
    def on_layer_start(self, index: int) -> None: ...


class _Driver:
    """Register access, page tables and synchronous submission. Every
    device interaction that changes state flows through methods here so a
    listener can observe it."""

    def __init__(self, stack: "GpuStack"):
        self.stack = stack
        self.dev = stack.dev
        self.sku = stack.dev.sku
        self.map = stack.dev.reg_map
        self.outstanding = False
        self.page_tables: dict[int, int] = {}  # L1 index -> L2 table page pa
        self.l1_pa = 0
        self.mappings: dict[int, tuple[int, int, Perm, AllocFlags, list[int]]] = {}
        # gpu_va -> (len_bytes, n_pages, perms, flags, phys pages)
        self._page_pa: dict[int, int] = {}  # vpn -> pa, over all mappings

    # -- low-level accessor, observed by the recorder ----------------------

    def _emit(self, **kw):
        lst = self.stack.listener
        if lst is not None:
            lst.on_port_event(PortEvent(**kw))

    def _off(self, name: str) -> int:
        reg = self.map.by_name(name)
        if reg is None:
            raise DriverError(f"no register named {name}")
        return reg.offset

    def write(self, name: str, value: int) -> None:
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        self.dev.reg_write(self._off(name), value)
        self.dev.tick(REG_ACCESS_NS)
        self._emit(kind="write", reg=name, value=value, t0=t0, t1=self.dev.vclock_ns)

    def read(self, name: str) -> int:
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        v = self.dev.reg_read(self._off(name))
        self.dev.tick(REG_ACCESS_NS)
        cls = self.map.by_name(name).state_class
        self._emit(kind="read", reg=name, value=v, state_class=cls,
                   t0=t0, t1=self.dev.vclock_ns)
        return v

    def poll(self, name: str, mask: int, expect: int,
             max_reads: int = dv.POLL_MAX_READS) -> int:
        """wait_for() motif: re-read until (value & mask) == expect."""
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        off = self._off(name)
        n = 0
        while True:
            v = self.dev.reg_read(off)
            self.dev.tick(REG_ACCESS_NS)
            n += 1
            if (v & mask) == expect:
                break
            if n >= max_reads:
                raise DriverError(f"poll of {name} exhausted after {n} reads")
            self.dev.tick(POLL_PERIOD_NS)
        self._emit(kind="poll", reg=name, mask=mask, expect=expect, n_reads=n,
                   t0=t0, t1=self.dev.vclock_ns)
        return n

    def wait_irq(self, expect_bits: int, watchdog_ns: int) -> int:
        """Block (in virtual time) until an enabled interrupt fires."""
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        deadline = t0 + watchdog_ns
        bits = self.dev.irq_rawstat & expect_bits
        while not bits:
            nxt = self.dev.next_event_ns()
            if nxt is None or nxt > deadline:
                self.dev.tick(max(0, deadline - self.dev.vclock_ns))
                raise DriverError(f"watchdog: no interrupt within {watchdog_ns} ns")
            evs = self.dev.tick(nxt - self.dev.vclock_ns)
            for ev in evs:
                bits |= ev.bits
            bits |= self.dev.irq_rawstat & dv.IRQ_MMU_FAULT  # faults surface even if masked
        self._emit(kind="wait_irq", bits=bits, expect=expect_bits,
                   t0=t0, t1=self.dev.vclock_ns)
        return bits

    # -- page tables ---------------------------------------------------------

    def init_mmu(self):
        self.l1_pa = self.stack._alloc_phys_page()
        # Table base programming is driver bookkeeping, not part of the
        # recordable protocol: the replayer picks its own physical pages
        # and programs the base itself at load time.
        self.dev.reg_write(self._off("MMU_TABLE_BASE_LO"), self.l1_pa & 0xFFFFFFFF)
        self.dev.reg_write(self._off("MMU_TABLE_BASE_HI"), self.l1_pa >> 32)

    def map_pages(self, gpu_va: int, len_bytes: int, perms: Perm,
                  flags: AllocFlags, pages: list[int]) -> None:
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        for i, pa in enumerate(pages):
            self._install_pte(gpu_va + i * dv.PAGE_SIZE, pa, perms)
        self.dev.reg_write(self._off("GPU_CMD"), dv.CMD_TLB_INVALIDATE)
        self.dev.tick(REG_ACCESS_NS)
        self.mappings[gpu_va] = (len_bytes, len(pages), perms, flags, pages)
        vpn = gpu_va >> dv.PAGE_SHIFT  # alloc_map hands out whole pages
        self._page_pa.update((vpn + i, pa) for i, pa in enumerate(pages))
        self._emit(kind="map", gpu_va=gpu_va, len_bytes=len_bytes,
                   perm_bits=self.sku.encode_perms(perms), flags=flags,
                   t0=t0, t1=self.dev.vclock_ns)

    def unmap_pages(self, gpu_va: int) -> None:
        self.stack._os_jitter()
        t0 = self.dev.vclock_ns
        len_bytes, n_pages, _, _, pages = self.mappings.pop(gpu_va)
        for i in range(n_pages):
            self._clear_pte(gpu_va + i * dv.PAGE_SIZE)
            del self._page_pa[(gpu_va >> dv.PAGE_SHIFT) + i]
        self.dev.reg_write(self._off("GPU_CMD"), dv.CMD_TLB_INVALIDATE)
        self.dev.tick(REG_ACCESS_NS)
        self.stack._free_phys_pages(pages)
        self._emit(kind="unmap", gpu_va=gpu_va, len_bytes=len_bytes,
                   t0=t0, t1=self.dev.vclock_ns)

    def _l2_for(self, va: int) -> int:
        l1_idx = (va >> 22) & 0x3FF
        l2_pa = self.page_tables.get(l1_idx)
        if l2_pa is None:
            l2_pa = self.stack._alloc_phys_page()
            self.page_tables[l1_idx] = l2_pa
            entry = l2_pa | self.sku.encode_perms(Perm.VALID | Perm.READ)
            self.dev.mem_write(self.l1_pa + l1_idx * 4, entry.to_bytes(4, "little"))
        return l2_pa

    def _install_pte(self, va: int, pa: int, perms: Perm):
        l2_pa = self._l2_for(va)
        entry = pa | self.sku.encode_perms(perms | Perm.VALID)
        self.dev.mem_write(l2_pa + ((va >> 12) & 0x3FF) * 4, entry.to_bytes(4, "little"))

    def _clear_pte(self, va: int):
        l2_pa = self._l2_for(va)
        self.dev.mem_write(l2_pa + ((va >> 12) & 0x3FF) * 4, b"\x00" * 4)

    def va_to_pa(self, va: int) -> int:
        pa = self._page_pa.get(va >> dv.PAGE_SHIFT)
        if pa is None:
            raise DriverError(f"VA {va:#x} not mapped by this driver")
        return pa + (va & dv.PAGE_MASK)

    # -- submission -----------------------------------------------------------

    def submit_job(self, chain_va: int, est_instr: int) -> None:
        """Kick one chain and see it through: wait, ack, flush, poll."""
        if self.outstanding:
            raise DriverError("job already outstanding (queue depth is 1)")
        self.outstanding = True
        try:
            lst = self.stack.listener
            if lst is not None:
                lst.on_port_event(PortEvent(kind="pre_kick", t0=self.dev.vclock_ns,
                                            t1=self.dev.vclock_ns))
            self.write("JOB_HEAD_LO", chain_va & 0xFFFFFFFF)
            self.write("JOB_HEAD_HI", 0)
            full = self.sku.full_core_mask
            self.write("JOB_AFFINITY", full)
            got = self.read("JOB_AFFINITY")
            if got != full:
                raise DriverError(f"cores not powered: affinity reads {got:#x}")
            self.write("JOB_START", 1)
            self.read("JOB_PROGRESS")  # progress telemetry; value is meaningless
            est_cost = dv.JOB_BASE_COST_NS + dv.JOB_INSTR_COST_NS * est_instr
            watchdog = max(10 * est_cost * self.dev.clock_div, 1_000_000)
            bits = self.wait_irq(dv.IRQ_JOB_DONE | dv.IRQ_MMU_FAULT, watchdog)
            if bits & dv.IRQ_MMU_FAULT:
                raise DriverError(f"MMU fault at {self.read('MMU_FAULT_ADDR'):#x}")
            raw = self.read("GPU_IRQ_RAWSTAT")
            self.write("GPU_IRQ_CLEAR", raw & dv.IRQ_JOB_DONE)
            status = self.read("JOB_STATUS")
            if status != dv.JOB_DONE:
                raise DriverError(f"job status {status}")
            self.write("GPU_CMD", dv.CMD_CACHE_FLUSH)
            self.poll("GPU_STATUS", dv.STATUS_DIRTY, 0)
        finally:
            self.outstanding = False


class GpuStack:
    """The full stack stand-in: runtime (JIT + memory management) plus the
    driver above. One run at a time; re-running resets everything so the
    allocator lays buffers out identically on every run of a given graph."""

    def __init__(self, dev: Device, delays: DelayPolicy = DelayPolicy(),
                 rng_seed: int = 0):
        self.dev = dev
        self.delays = delays
        self.rng_seed = rng_seed
        self.listener: StackListener | None = None
        self.driver = _Driver(self)
        self.allocations: list[Allocation] = []
        self._rng = random.Random(rng_seed)
        self._free_pages: deque[int] = deque()
        self._next_va = VA_BASE

    # -- time & memory plumbing -------------------------------------------------

    def sleep(self, ns: int) -> None:
        if ns > 0:
            self.dev.tick(round(ns))

    def _os_jitter(self):
        if self.delays.os_jitter_ns:
            self.sleep(self._rng.randint(0, self.delays.os_jitter_ns))

    def _reset_allocators(self):
        # page 0 stays reserved so a null PTE never aliases real data
        self._free_pages = deque(range(dv.PAGE_SIZE, dv.MEM_BYTES, dv.PAGE_SIZE))
        self._next_va = VA_BASE
        self.allocations = []
        self.driver = _Driver(self)
        self._rng = random.Random(self.rng_seed)

    def _alloc_phys_page(self) -> int:
        if not self._free_pages:
            raise DriverError("out of physical pages")
        pa = self._free_pages.popleft()
        self.dev.mem_write(pa, _ZERO_PAGE)  # scrubbed on alloc
        self.sleep(round(dv.PAGE_SIZE * ZERO_BYTE_NS))
        return pa

    def _free_phys_pages(self, pages: list[int]):
        self._free_pages.extendleft(reversed(pages))  # reused first, in their order

    def alloc_map(self, tag: str, len_bytes: int, flags: AllocFlags,
                  perms: Perm) -> Allocation:
        if AllocFlags.GPU_EXEC in flags and AllocFlags.INTERNAL_SCRATCH in flags:
            raise ValueError("GPU_EXEC excludes INTERNAL_SCRATCH")
        self.sleep(self.delays.mgmt_ns)
        n_pages = max(1, -(-len_bytes // dv.PAGE_SIZE))
        va = self._next_va
        self._next_va += n_pages * dv.PAGE_SIZE
        pages = [self._alloc_phys_page() for _ in range(n_pages)]
        self.driver.map_pages(va, len_bytes, perms, flags, pages)
        alloc = Allocation(tag, va, len_bytes, n_pages, flags, perms)
        self.allocations.append(alloc)
        return alloc

    def mem_write_va(self, va: int, data: bytes) -> None:
        """Runtime-side write through the CPU mapping; invisible to the
        driver accessor stream on purpose."""
        for off, pa, chunk in dv.va_chunks(va, len(data), self.driver.va_to_pa):
            self.dev.mem_write(pa, data[off:off + chunk])

    def mem_read_va(self, va: int, n: int) -> bytes:
        return b"".join(self.dev.mem_read(pa, chunk)
                        for _, pa, chunk in dv.va_chunks(va, n, self.driver.va_to_pa))

    def find_alloc(self, tag: str) -> Allocation:
        for a in self.allocations:
            if a.tag == tag:
                return a
        raise KeyError(tag)

    # -- the workload run ----------------------------------------------------------

    def run_workload(self, graph: WorkloadGraph, input_bytes: bytes) -> bytes:
        if len(input_bytes) != graph.input_elems * 4:
            raise ValueError("input length does not match graph")
        self._reset_allocators()
        drv = self.driver

        # context init: reset, identify, configure MMU and interrupts
        drv.write("GPU_CMD", dv.CMD_SOFT_RESET)
        raw = drv.read("GPU_IRQ_RAWSTAT")
        drv.write("GPU_IRQ_CLEAR", raw)
        gpu_id = drv.read("GPU_ID")
        if gpu_id != self.dev.sku.gpu_id_value:
            raise DriverError(f"unexpected GPU_ID {gpu_id:#x}")
        drv.init_mmu()
        drv.write("MMU_CONFIG", self.dev.sku.expected_mmu_config)
        drv.write("GPU_IRQ_MASK", dv.IRQ_ALL)

        in_alloc = self.alloc_map("input", len(input_bytes), AllocFlags.CPU_VISIBLE,
                                  Perm.READ)
        self.mem_write_va(in_alloc.gpu_va, input_bytes)
        self.sleep(round(len(input_bytes) * COPY_BYTE_NS))

        multi = len(graph.layers) > 1
        src_va = in_alloc.gpu_va
        out_alloc = None
        for i, layer in enumerate(graph.layers):
            if self.listener is not None:
                self.listener.on_layer_start(i)
            # intermediate buffers are GPU-internal; only the staged output
            # (or a single layer's output) is CPU-visible
            flags = AllocFlags.CPU_VISIBLE if not multi else AllocFlags.NONE
            out_alloc = self.alloc_map(f"L{i}.out", layer.out_elems * 4, flags,
                                       Perm.READ | Perm.WRITE)
            try:
                self._run_job(f"L{i}", layer, src_va, out_alloc.gpu_va)
            except DriverError as e:
                raise WorkloadError(i, str(e)) from e
            src_va = out_alloc.gpu_va

        if multi:
            if self.listener is not None:
                self.listener.on_layer_start(len(graph.layers) - 1)
            stage = self.alloc_map("output", graph.output_elems * 4,
                                   AllocFlags.CPU_VISIBLE, Perm.READ | Perm.WRITE)
            copy_layer = Layer("copy", (), graph.output_elems, graph.output_elems)
            try:
                self._run_job("stage", copy_layer, src_va, stage.gpu_va)
            except DriverError as e:
                raise WorkloadError(len(graph.layers) - 1, str(e)) from e
            out_alloc = stage

        return self.mem_read_va(out_alloc.gpu_va, graph.output_elems * 4)

    def _run_job(self, tag: str, layer: Layer, src_va: int, out_va: int) -> None:
        scratch = self.alloc_map(f"{tag}.scratch", 2 * dv.PAGE_SIZE,
                                 AllocFlags.INTERNAL_SCRATCH, Perm.READ | Perm.WRITE)
        pattern = bytearray(scratch.len_bytes)
        for off in range(0, len(pattern), 128):
            pattern[off] = (off // 128 * 7 + 1) & 0xFF
        self.mem_write_va(scratch.gpu_va, bytes(pattern))

        words, est_instr, params = emit_shader(layer, src_va, out_va)
        code = b"".join(w.to_bytes(4, "little") for w in words)
        shader = self.alloc_map(f"{tag}.shader", len(code),
                                AllocFlags.GPU_EXEC, Perm.READ | Perm.EXEC)
        desc = self.alloc_map(f"{tag}.desc", dv.DESCRIPTOR_BYTES,
                              AllocFlags.GPU_EXEC, Perm.READ | Perm.EXEC)

        self.sleep(self.delays.jit_ns)  # "compile" time
        self.mem_write_va(shader.gpu_va, code)
        desc_words = [0, shader.gpu_va, len(code), self.dev.sku.full_core_mask] + params
        self.mem_write_va(desc.gpu_va, b"".join(
            (w & 0xFFFFFFFF).to_bytes(4, "little") for w in desc_words))

        self.driver.submit_job(desc.gpu_va, est_instr)
        self.driver.unmap_pages(scratch.gpu_va)


def matmul_shader_words(m: int, n: int, k: int) -> int:
    """Length of emit_shader's unrolled matmul: per output element two LDI
    (accumulator, store offset), and for each of the k products two LDI,
    three ADD, two LD and one MUL (10 words), an ADD and an ST; one HALT."""
    return m * n * (10 * k + 6) + 1


def emit_shader(layer: Layer, src_va: int, out_va: int) -> tuple[list[int], int, list[int]]:
    """JIT one layer: returns (words, exact dynamic instruction count,
    8-entry param block)."""
    a = Asm()
    n = layer.out_elems
    if layer.op == "vec_add":
        params = [src_va, src_va + n * 4, out_va, n, 0, 0, 0, 0]
        a.label("loop")
        a.ld(4, 0); a.ld(5, 1); a.add(6, 4, 5); a.st(2, 6)
        a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, 4); a.addi(3, 3, -1)
        a.bnz(3, "loop"); a.halt()
        return a.assemble(), 9 * n + 1, params
    if layer.op in ("scale", "relu"):
        params = [src_va, out_va, n, 0, 0, 0, 0, 0]
        a.ldi(5, layer.params[0] if layer.op == "scale" else 0)
        a.label("loop")
        a.ld(4, 0)
        if layer.op == "scale":
            a.mul(4, 4, 5)
        else:
            a.max_(4, 4, 5)
        a.st(1, 4)
        a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, -1)
        a.bnz(2, "loop"); a.halt()
        return a.assemble(), 7 * n + 2, params
    if layer.op == "copy":
        params = [src_va, out_va, n, 0, 0, 0, 0, 0]
        a.label("loop")
        a.ld(4, 0); a.st(1, 4)
        a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, -1)
        a.bnz(2, "loop"); a.halt()
        return a.assemble(), 6 * n + 1, params
    if layer.op == "matmul":
        m, nn, k = layer.params
        params = [src_va, src_va + m * k * 4, out_va, 0, 0, 0, 0, 0]
        # fully unrolled: shapes are compile-time constants for the JIT
        for i in range(m):
            for j in range(nn):
                a.ldi(6, 0)
                for l in range(k):
                    a.ldi(3, (i * k + l) * 4); a.add(3, 0, 3); a.ld(4, 3)
                    a.ldi(3, (l * nn + j) * 4); a.add(3, 1, 3); a.ld(5, 3)
                    a.mul(4, 4, 5); a.add(6, 6, 4)
                a.ldi(3, (i * nn + j) * 4); a.add(3, 2, 3); a.st(3, 6)
        a.halt()
        return a.assemble(), m * nn * (8 * k + 4) + 1, params
    raise ValueError(f"unknown op {layer.op}")
