"""Simulated GPU device: MMIO register file, two-level MMU, autonomous job
chains, interrupts, and a virtual nanosecond clock.

The device is the single source of time. Nothing here touches the wall
clock: callers advance time explicitly with :meth:`Device.tick`, and all
device-side work (job execution, cache flushes) completes at scheduled
virtual instants. A completing job latches its interrupt in
GPU_IRQ_RAWSTAT, and the interrupt line is RAWSTAT & GPU_IRQ_MASK
(:attr:`Device.irq_line`), a level a driver samples after it advances
time; nothing is delivered asynchronously.

Nondeterminism is confined to one seeded RNG stream per device: job and
flush durations carry a uniform jitter factor, and the JOB_PROGRESS
register returns fresh draws. Two devices with the same profile, seed and
input sequence stay bit-identical; computed data never depends on the
seed, only timing does.

Shader stores do not hit physical memory directly. They are buffered as
pending cache writebacks and commit only when a CACHE_FLUSH completes,
which is when the GPU_STATUS dirty bit clears. Host-side reads through
:meth:`Device.mem_read` never see uncommitted writebacks. The buffer is
keyed by physical page: a buffered page is its bytes and a byte mask that
is 0xFF on every byte buffered.

Physical memory is an anonymous ``mmap``: the kernel zeroes its pages
lazily, so constructing a device costs no time and resident memory grows
only with the pages actually touched. Every committed write to it, host
``mem_write`` or flush, is logged by physical page number; the device's
owner takes that log (:meth:`Device.take_dirty_pages`) to copy only what
changed since it last looked. Both writes also raise
:attr:`Device.written_end`, past which RAM still holds the mmap's zeros.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import mmap
import random
import struct
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .shader import MemPath, ShaderFault, execute

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1
MEM_BYTES = 16 * 1024 * 1024
U32 = 0xFFFFFFFF
_LAST_WORD_PA = MEM_BYTES - 4  # highest PA a 4-byte access may start at
_u32_at = struct.Struct("<I").unpack_from
_put_u32 = struct.Struct("<I").pack_into
_FF = b"\xff" * PAGE_SIZE  # a page mask's set bytes

# Interrupt bits (GPU_IRQ_RAWSTAT / GPU_IRQ_MASK / GPU_IRQ_CLEAR).
IRQ_JOB_DONE = 1 << 0
IRQ_MMU_FAULT = 1 << 1
IRQ_RESET_DONE = 1 << 2
IRQ_ALL = IRQ_JOB_DONE | IRQ_MMU_FAULT | IRQ_RESET_DONE

# GPU_STATUS bits. The powered-core mask is mirrored into bits 8..15 so a
# single status read exposes core power state.
STATUS_BUSY = 1 << 0
STATUS_DIRTY = 1 << 1  # writeback pending or flush in flight
STATUS_CORES_SHIFT = 8

# GPU_CMD encodings.
CMD_SOFT_RESET = 1
CMD_CACHE_FLUSH = 2
CMD_TLB_INVALIDATE = 3

# JOB_STATUS encodings.
JOB_IDLE = 0
JOB_RUNNING = 1
JOB_DONE = 2
JOB_BAD_STATE = 3   # kick while busy, or a chain ran out of the steps left
JOB_MMU_FAULT = 4

# Cost model. Arbitrary but fixed; only ratios matter for timing claims.
JOB_BASE_COST_NS = 200
JOB_INSTR_COST_NS = 2
FLUSH_BASE_COST_NS = 300
FLUSH_BYTE_COST_NS = 0.25
JITTER_LO = 0.9
JITTER_HI = 1.3
# The most 32-bit words drawn from a device's RNG since its base state
# before a snapshot takes a fresh one (see DeviceSnapshot). The draw sites
# count CPython's Mersenne Twister words: one per getrandbits(32), two per
# random() and so per uniform().
_RNG_REBASE_WORDS = 4096

# The shader steps an owner grants the device (Device.steps_left) for all
# the kicks of one stack run or replay attempt. It covers the largest run
# the stack can record: a unary layer costs at most 7 instructions per
# element and owns one output word per element until the run ends, so a
# run costs at most 7 per word of the 16 MiB arena, under 29.4M < 2^25.
SHADER_STEP_BUDGET = 1 << 25
CHAIN_MAX_JOBS = 4096
# The most reads a driver's poll makes before it gives up. Replay polls a
# recorded register up to a multiple of its max_polls, so a recording may
# ask for no more (verifier rule R9).
POLL_MAX_READS = 100_000
SHADER_MAX_BYTES = 64 * 1024

# Job descriptor layout in GPU memory: 12 little-endian u32 words.
#   [0] next_va  [1] shader_va  [2] shader_len  [3] affinity  [4..11] params
DESCRIPTOR_BYTES = 48
_unpack_desc = struct.Struct(f"<{DESCRIPTOR_BYTES // 4}I").unpack_from


class Perm(enum.Flag):
    """Page permission bits, position-independent; a SkuProfile decides the
    bit layout inside a PTE."""

    VALID = enum.auto()
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()


_VALID, _READ, _WRITE, _EXEC = (Perm.VALID.value, Perm.READ.value,
                                Perm.WRITE.value, Perm.EXEC.value)


class Access(enum.Enum):
    RO = "ro"
    WO = "wo"
    RW = "rw"


# read once: each read of a member through its enum class is a slow
# attribute lookup, and every register access tests one
_RO, _WO = Access.RO, Access.WO


class StateClass(enum.Enum):
    PURE_READ = "pure_read"
    NONDET_READ = "nondet_read"


class BusError(Exception):
    """Register access outside the map or against its access direction."""

    def __init__(self, offset: int, why: str):
        self.offset = offset
        super().__init__(f"bus error at reg offset {offset:#x}: {why}")


class MmuFault(Exception):
    """Translation failure; carries the faulting GPU VA."""

    def __init__(self, va: int, access: Perm):
        self.va = va
        self.access = access
        super().__init__(f"MMU fault at VA {va:#010x} ({access})")


class SkuMismatch(Exception):
    pass


class DeviceOwned(Exception):
    pass


@dataclass(frozen=True)
class SkuProfile:
    """Per-GPU-model interface description.

    ``perm_bit_layout`` assigns each of VALID/READ/WRITE/EXEC to one of PTE
    bits 0..3; it must be a bijection. Models of the same family share
    register names and semantics but differ here and in the expected
    register values.
    """

    sku_id: int
    core_count: int
    perm_bit_layout: tuple[Perm, Perm, Perm, Perm]
    expected_mmu_config: int
    gpu_id_value: int
    # decode_perms of every 4-bit PTE field, as an int mask of Perm values:
    # the MMU tests these instead of building a Perm on every access
    perm_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # encode_perms by Perm value, the inverse table
    perm_codes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.core_count <= 32:
            raise ValueError(f"core_count {self.core_count} out of [1, 32]")
        if set(self.perm_bit_layout) != {Perm.VALID, Perm.READ, Perm.WRITE, Perm.EXEC}:
            raise ValueError("perm_bit_layout must be a permutation of V,R,W,X")
        object.__setattr__(self, "perm_masks",
                           tuple(self.decode_perms(bits).value for bits in range(16)))
        object.__setattr__(self, "perm_codes", tuple(
            sum(1 << pos for pos, p in enumerate(self.perm_bit_layout) if p.value & value)
            for value in range(16)))

    @property
    def full_core_mask(self) -> int:
        return (1 << self.core_count) - 1

    def encode_perms(self, perms: Perm) -> int:
        return self.perm_codes[perms.value]

    def decode_perms(self, bits: int) -> Perm:
        perms = Perm(0)
        for pos, p in enumerate(self.perm_bit_layout):
            if bits & (1 << pos):
                perms |= p
        return perms


SKU_A = SkuProfile(
    sku_id=0x0B31,
    core_count=1,
    perm_bit_layout=(Perm.VALID, Perm.READ, Perm.WRITE, Perm.EXEC),
    expected_mmu_config=0x0,
    gpu_id_value=0x0B31,
)

SKU_B = SkuProfile(
    sku_id=0x0B71,
    core_count=8,
    perm_bit_layout=(Perm.VALID, Perm.EXEC, Perm.READ, Perm.WRITE),
    expected_mmu_config=0x8,
    gpu_id_value=0x0B71,
)

SKUS = {"A": SKU_A, "B": SKU_B}
SKUS_BY_ID = {p.sku_id: p for p in SKUS.values()}


@functools.cache
def perm_table(from_sku: SkuProfile, to_sku: SkuProfile,
               add: Perm = Perm(0)) -> tuple[int, ...]:
    """For every 4-bit PTE field in ``from_sku``'s layout, the same
    permissions plus ``add`` in ``to_sku``'s layout."""
    return tuple(to_sku.encode_perms(from_sku.decode_perms(bits) | add)
                 for bits in range(16))


@dataclass(frozen=True)
class RegDef:
    name: str
    offset: int
    access: Access
    state_class: StateClass = StateClass.PURE_READ


@dataclass(frozen=True)
class RegisterMap:
    """Named register layout; recordings refer to registers by name and the
    replayer resolves names against its own map."""

    entries: tuple[RegDef, ...]
    # name -> RegDef and offset -> RegDef, each one dict.get built with the
    # map: every register access resolves through one of them
    by_name: Callable[[str], RegDef | None] = field(init=False, repr=False, compare=False)
    by_offset: Callable[[int], RegDef | None] = field(init=False, repr=False, compare=False)
    _digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [e.name for e in self.entries]
        offsets = [e.offset for e in self.entries]
        if len(set(names)) != len(names) or len(set(offsets)) != len(offsets):
            raise ValueError("register names and offsets must be unique")
        for e in self.entries:
            if e.state_class is StateClass.NONDET_READ and e.access is not Access.RO:
                raise ValueError(f"NONDET_READ register {e.name} must be read-only")
        object.__setattr__(self, "by_name", {e.name: e for e in self.entries}.get)
        object.__setattr__(self, "by_offset", {e.offset: e for e in self.entries}.get)
        h = hashlib.sha256()
        for e in sorted(self.entries, key=lambda e: e.offset):
            h.update(f"{e.name}:{e.offset}:{e.access.value}:{e.state_class.value}\n".encode())
        object.__setattr__(self, "_digest", h.digest())

    def digest(self) -> bytes:
        """SHA-256 over the entries in offset order, the hash a recording's
        header carries; computed once, with the map."""
        return self._digest


def default_register_map() -> RegisterMap:
    R, W, RW = Access.RO, Access.WO, Access.RW
    return RegisterMap(entries=(
        RegDef("GPU_ID", 0x00, R),
        RegDef("GPU_STATUS", 0x04, R),
        RegDef("GPU_IRQ_RAWSTAT", 0x08, R),
        RegDef("GPU_IRQ_CLEAR", 0x0C, W),
        RegDef("GPU_IRQ_MASK", 0x10, RW),
        RegDef("GPU_CMD", 0x14, W),
        RegDef("MMU_TABLE_BASE_LO", 0x18, RW),
        RegDef("MMU_TABLE_BASE_HI", 0x1C, RW),
        RegDef("MMU_CONFIG", 0x20, RW),
        RegDef("JOB_HEAD_LO", 0x24, RW),
        RegDef("JOB_HEAD_HI", 0x28, RW),
        RegDef("JOB_START", 0x2C, W),
        RegDef("JOB_STATUS", 0x30, R),
        RegDef("JOB_AFFINITY", 0x34, RW),
        RegDef("JOB_PROGRESS", 0x38, R, StateClass.NONDET_READ),
        RegDef("CLOCK_DIV", 0x3C, RW),
        RegDef("PWR_CORES_ON", 0x40, R),
        RegDef("MMU_FAULT_ADDR", 0x44, R),
    ))


DEFAULT_REGISTER_MAP = default_register_map()


@contextmanager
def naming_line(kind: str, lineno: int, raw: str):
    """Re-raise a ValueError with the line of a ``kind`` text file (a
    workload, harness or register map) that it is about."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{kind} line {lineno}: {raw!r}: {e}") from None


def number(word: str) -> int:
    """An integer literal of a text file, in any base Python writes one."""
    try:
        return int(word, 0)
    except ValueError:
        raise ValueError(f"{word!r} is not a number") from None


def parse_register_map(text: str) -> RegisterMap:
    """Line format: ``NAME OFFSET ro|wo|rw [pure_read|nondet_read]``. A bad
    line is a ValueError that names the line and says what is wrong."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        with naming_line("register map", lineno, raw):
            if len(parts) not in (3, 4):
                raise ValueError("want 'NAME OFFSET ro|wo|rw [pure_read|nondet_read]'")
            name, offset, access = parts[0], number(parts[1]), Access(parts[2].lower())
            cls = StateClass(parts[3].lower()) if len(parts) == 4 else StateClass.PURE_READ
        entries.append(RegDef(name, offset, access, cls))
    return RegisterMap(tuple(entries))


# A buffer of stores maps a physical page number to the page's buffered
# bytes and its mask, two bytearrays of PAGE_SIZE. A mask byte is 0xFF
# where its byte is buffered and 0 elsewhere, where the data byte is 0 too;
# a buffer holds no page without a buffered byte.
PageBuffer = dict[int, tuple[bytearray, bytearray]]


@dataclass
class _PendingJob:
    finish_ns: int | None  # None: stalled with no powered core in affinity
    stores: PageBuffer
    instr_count: int
    fault_va: int | None
    status: int  # JOB_STATUS value to latch on completion


@dataclass
class DeviceSnapshot:
    """Copyable device state minus the RAM array.

    Covers registers, protocol state, buffered writebacks, pending work (a
    pending flush is its finish time) and the RNG stream position. The
    position is a base state of the stream and the count of 32-bit words
    drawn since it: a device copies the generator state at its first
    snapshot and then only once more than ``_RNG_REBASE_WORDS`` (4096)
    words were drawn since its last copy, and a restore sets the base and
    regenerates at most that many words. The buffered pages, the
    writeback's and a pending job's, are copies: a snapshot shares no
    bytearray with the device it came from or the devices restored from
    it, so it can be restored any number of times. It holds no step
    count: a restore leaves the owner's grant, ``Device.steps_left``.
    RAM contents are restored separately by whoever owns the memory (the
    replayer's checkpoints copy the pages written since load); a restore
    therefore reproduces the original run exactly as long as RAM was not
    mutated in between.
    """

    sku_id: int
    vclock_ns: int
    regs: dict[str, int]
    irq_rawstat: int
    cores_on: int
    clock_div: int
    job_state: int
    fault_addr: int
    writeback: PageBuffer
    tlb: dict[int, tuple[int, int]]
    pending_job: _PendingJob | None
    pending_flush: int | None
    rng_state: tuple[tuple, int]  # (base state, words drawn since)


def _copy_pages(pages: PageBuffer) -> PageBuffer:
    """A copy of a page buffer that shares no bytearray with it."""
    return {ppn: (bytearray(data), bytearray(mask)) for ppn, (data, mask) in pages.items()}


def _copy_job(job: _PendingJob | None) -> _PendingJob | None:
    return None if job is None else replace(job, stores=_copy_pages(job.stores))


def _runs(mask: bytearray) -> Iterator[tuple[int, int]]:
    """[start, end) of each run of buffered bytes in a page mask."""
    i = mask.find(0xFF)
    while i >= 0:
        j = mask.find(0, i)
        if j < 0:
            yield i, PAGE_SIZE
            return
        yield i, j
        i = mask.find(0xFF, j)


def _shown(pages: PageBuffer, pa: int, val: int) -> int:
    """The u32 ``val`` read at ``pa`` with the bytes ``pages`` buffers over it."""
    lo = pa & PAGE_MASK
    if lo <= PAGE_SIZE - 4:
        page = pages.get(pa >> PAGE_SHIFT)
        if page is not None:
            # mask bytes are 0 or 0xFF: the mask's u32 selects the data's bits
            bits = _u32_at(page[1], lo)[0]
            val = val & ~bits | _u32_at(page[0], lo)[0]
        return val
    for i in range(4):  # across a page edge, byte by byte
        page = pages.get((pa + i) >> PAGE_SHIFT)
        b = (pa + i) & PAGE_MASK
        if page is not None and page[1][b]:
            val = val & ~(0xFF << 8 * i) | page[0][b] << 8 * i
    return val


def va_chunks(va: int, n: int, to_pa) -> Iterator[tuple[int, int, int]]:
    """Split the VA span [va, va + n) into runs of VA pages whose
    physical pages follow one another. Yields ``(offset into the span,
    pa, length)`` per run, where ``pa`` is ``to_pa`` of the run's first
    VA and the run's bytes are the ``length`` physical bytes from ``pa``
    on; no run's bytes end where the next one's begin."""
    off = 0
    while off < n:
        pa = to_pa(va + off)
        end = off + PAGE_SIZE - ((va + off) & PAGE_MASK)
        while end < n and to_pa(va + end) == pa + end - off:
            end += PAGE_SIZE
        yield off, pa, min(end, n) - off
        off = end


def span_pages(va: int, n: int, to_pa) -> set[int]:
    """Physical page numbers that the chunks of ``va_chunks`` cover."""
    pages: set[int] = set()
    for _, pa, chunk in va_chunks(va, n, to_pa):
        pages.update(range(pa >> PAGE_SHIFT, ((pa + chunk - 1) >> PAGE_SHIFT) + 1))
    return pages


# The compiled shader loops' memory fast path over _run_chain's state: an
# aligned load on a walked page that holds no buffered byte reads memory,
# and an aligned store on a page the job already stored to sets its word in
# the job's buffered page: the data, and the mask through a u32 view of it.
# Anything else calls the chain's load_word / store_word.
_MEM_PATH = MemPath(
    ld="""\
_b = read_fast.get({a} >> %d)
if _b is None or {a} & 3:
    {d} = load_word({a})
else:
    {d} = u32_at(mem, _b | ({a} & %d))[0]""" % (PAGE_SHIFT, PAGE_MASK),
    st="""\
_p = write_fast.get({a} >> %d)
if _p is None or {a} & 3:
    store_word({a}, {s})
else:
    _d, _m = _p
    _o = {a} & %d
    put_u32(_d, _o, {s})
    _m[_o >> 2] = 0xFFFFFFFF""" % (PAGE_SHIFT, PAGE_MASK),
    names=("mem", "u32_at", "put_u32", "read_fast", "write_fast"))


class Device:
    """One simulated GPU instance. Single-owner: exactly one session mutates
    a device at a time (ownership is advisory, via claim/release)."""

    def __init__(self, sku: SkuProfile = SKU_A, env_seed: int = 0):
        self.sku = sku
        self.reg_map = DEFAULT_REGISTER_MAP
        self.mem = mmap.mmap(-1, MEM_BYTES)
        self.rng = random.Random(env_seed)
        # the RNG position: a base state, taken at the first snapshot, and
        # the 32-bit words drawn since it; every draw site counts its own
        self._rng_base: tuple | None = None
        self._rng_drawn = 0
        self.vclock_ns = 0
        self.owner: object | None = None
        # physical pages written since the owner last took the log
        self._dirty_pages: set[int] = set()
        # a bound on RAM ever written: every byte at or past it is still zero
        self.written_end = 0
        self._stored: dict[str, int] = {}
        # the shader steps kicks may still run: the owner grants them, and
        # a soft reset leaves them, so a driver's resets cannot refill them
        self.steps_left = 0
        self._power_on_state()

    # -- lifecycle ---------------------------------------------------------

    def _power_on_state(self):
        self._stored.update({
            "GPU_IRQ_MASK": 0,
            "MMU_TABLE_BASE_LO": 0,
            "MMU_TABLE_BASE_HI": 0,
            "MMU_CONFIG": 0,
            "JOB_HEAD_LO": 0,
            "JOB_HEAD_HI": 0,
            "JOB_AFFINITY": 0,
        })
        self.irq_rawstat = 0
        self.cores_on = self.sku.full_core_mask
        self.clock_div = getattr(self, "clock_div", 1)
        self.job_state = JOB_IDLE
        self.fault_addr = 0
        self.writeback: PageBuffer = {}  # the finished jobs' buffered stores
        # the writeback's runs as the flush found them when it started, for
        # its commit; None once a finished job's stores changed the writeback
        self._flush_runs: list[tuple[int, int, bytearray, int, int]] | None = None
        self.tlb: dict[int, tuple[int, int]] = {}  # vpn -> (ppn, perm bits raw)
        self._pending_job: _PendingJob | None = None
        self._pending_flush: int | None = None  # a flush in flight's finish time
        self.next_event_ns: int | None = None  # nothing pending (see tick)

    def _soft_reset(self):
        # The clock divider survives: it models the SoC clock tree, which is
        # outside the GPU reset domain. RAM is likewise untouched.
        self._power_on_state()
        self.irq_rawstat = IRQ_RESET_DONE

    def claim(self, owner: object):
        if self.owner is not None:
            raise DeviceOwned("device already owned")
        self.owner = owner

    def release(self, owner: object):
        if self.owner is owner:
            self.owner = None

    # -- registers ---------------------------------------------------------

    def reg_read(self, offset: int) -> int:
        reg = self.reg_map.by_offset(offset)
        if reg is None:
            raise BusError(offset, "unknown register")
        if reg.access is _WO:
            raise BusError(offset, f"{reg.name} is write-only")
        name = reg.name
        if name == "GPU_ID":
            v = self.sku.gpu_id_value
        elif name == "GPU_STATUS":
            v = (self.cores_on & 0xFF) << STATUS_CORES_SHIFT
            if self.job_state == JOB_RUNNING:
                v |= STATUS_BUSY
            if self.writeback or self._pending_flush is not None:
                v |= STATUS_DIRTY
        elif name == "GPU_IRQ_RAWSTAT":
            v = self.irq_rawstat
        elif name == "JOB_STATUS":
            v = self.job_state
        elif name == "JOB_AFFINITY":
            # reads report the effective affinity: requested cores that are
            # actually powered
            v = self._stored["JOB_AFFINITY"] & self.cores_on
        elif name == "JOB_PROGRESS":
            self._rng_drawn += 1
            v = self.rng.getrandbits(32)
        elif name == "CLOCK_DIV":
            v = self.clock_div
        elif name == "PWR_CORES_ON":
            v = self.cores_on
        elif name == "MMU_FAULT_ADDR":
            v = self.fault_addr
        else:
            v = self._stored[name]
        return v & U32

    def reg_write(self, offset: int, value: int) -> None:
        reg = self.reg_map.by_offset(offset)
        if reg is None:
            raise BusError(offset, "unknown register")
        if reg.access is _RO:
            raise BusError(offset, f"{reg.name} is read-only")
        value &= U32
        name = reg.name
        if name == "GPU_IRQ_CLEAR":
            self.irq_rawstat &= ~value
        elif name == "GPU_CMD":
            # unknown commands are ignored, as real hardware tends to
            if value == CMD_SOFT_RESET:
                self._soft_reset()
            elif value == CMD_CACHE_FLUSH:
                self._start_flush()
            elif value == CMD_TLB_INVALIDATE:
                self.tlb.clear()
        elif name == "JOB_START":
            if value & 1:
                self._kick()
        elif name == "CLOCK_DIV":
            self.clock_div = max(1, value)
        else:
            self._stored[name] = value

    # -- MMU ----------------------------------------------------------------

    @property
    def mmu_base(self) -> int:
        return (self._stored["MMU_TABLE_BASE_HI"] << 32) | self._stored["MMU_TABLE_BASE_LO"]

    def _walk(self, va: int, need: int) -> int:
        """Pure two-level walk for an access needing the Perm bits ``need``
        (an int mask); returns the physical address or raises MmuFault
        without touching device state (other than the TLB fill)."""
        va &= U32
        vpn = va >> PAGE_SHIFT
        masks = self.sku.perm_masks
        cached = self.tlb.get(vpn)
        if cached is not None:
            ppn, raw_bits = cached
        else:
            stored, mem = self._stored, self.mem
            base = (stored["MMU_TABLE_BASE_HI"] << 32) | stored["MMU_TABLE_BASE_LO"]
            if base == 0 or base + PAGE_SIZE > MEM_BYTES:
                raise MmuFault(va, Perm(need))
            l1_entry = _u32_at(mem, base + ((va >> 22) & 0x3FF) * 4)[0]
            if not masks[l1_entry & 0xF] & _VALID:
                raise MmuFault(va, Perm(need))
            l2_base = l1_entry & ~(PAGE_SIZE - 1)
            if l2_base + PAGE_SIZE > MEM_BYTES:
                raise MmuFault(va, Perm(need))
            l2_entry = _u32_at(mem, l2_base + ((va >> 12) & 0x3FF) * 4)[0]
            raw_bits = l2_entry & 0xF
            if not masks[raw_bits] & _VALID:
                raise MmuFault(va, Perm(need))
            ppn = l2_entry >> PAGE_SHIFT
            self.tlb[vpn] = (ppn, raw_bits)
        if masks[raw_bits] & need != need:
            raise MmuFault(va, Perm(need))
        pa = (ppn << PAGE_SHIFT) | (va & PAGE_MASK)
        if pa >= MEM_BYTES:
            raise MmuFault(va, Perm(need))
        return pa

    # -- host-visible shared memory ------------------------------------------

    def mem_read(self, pa: int, n: int) -> bytes:
        if pa < 0 or n < 0 or pa + n > MEM_BYTES:
            raise ValueError(f"physical range {pa:#x}+{n:#x} out of bounds")
        return self.mem[pa:pa + n]

    def mem_write(self, pa: int, data: bytes) -> None:
        end = pa + len(data)
        if pa < 0 or end > MEM_BYTES:
            raise ValueError(f"physical range {pa:#x}+{len(data):#x} out of bounds")
        self.mem[pa:end] = data
        if end > self.written_end:
            self.written_end = end
        first = pa >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        if first == last:
            self._dirty_pages.add(first)
        elif first < last:
            self._dirty_pages.update(range(first, last + 1))

    def take_dirty_pages(self) -> set[int]:
        """Physical page numbers written since the previous call (host
        writes and flush commits), and start a new log. Only the device's
        owner calls this: a second taker would hide writes from the first."""
        dirty = self._dirty_pages
        self._dirty_pages = set()
        return dirty

    # -- job chains ----------------------------------------------------------

    def _kick(self):
        if self.job_state == JOB_RUNNING:
            # protocol violation: kicking a busy GPU wedges the job unit
            self._pending_job = None
            self.job_state = JOB_BAD_STATE
            self.next_event_ns = self._next_event()
            return
        head = ((self._stored["JOB_HEAD_HI"] << 32) | self._stored["JOB_HEAD_LO"]) & U32
        affinity = self._stored["JOB_AFFINITY"]
        if affinity & self.cores_on == 0:
            # no powered core may take the job: it stalls indefinitely
            self.job_state = JOB_RUNNING
            self._pending_job = _PendingJob(None, {}, 0, None, JOB_DONE)
            self.next_event_ns = self._next_event()
            return
        pending = self._run_chain(head)
        self.steps_left -= pending.instr_count
        jitter = self.rng.uniform(JITTER_LO, JITTER_HI)
        self._rng_drawn += 2
        cost = JOB_BASE_COST_NS + JOB_INSTR_COST_NS * pending.instr_count
        pending.finish_ns = self.vclock_ns + round(cost * self.clock_div * jitter)
        self.job_state = JOB_RUNNING
        self._pending_job = pending
        self.next_event_ns = self._next_event()

    def _run_chain(self, head_va: int) -> _PendingJob:
        """Execute a whole descriptor chain against current memory. Effects
        (stores, fault, status) are latched and applied at finish time.

        Loads and stores translate their first byte's VA only; the other
        three bytes are the next physical bytes, even across a page edge.
        Each page is walked on its first access per access kind and the
        chain reuses that translation afterwards."""
        mem = self.mem
        walk = self._walk
        writeback = self.writeback
        stores: PageBuffer = {}  # the chain's own, like writeback
        read_pages: dict[int, int] = {}  # vpn -> physical page base
        write_pages: dict[int, int] = {}
        # vpn -> the data and a u32 view of the mask of its page in stores,
        # for aligned stores after the first
        write_fast: dict[int, tuple[bytearray, memoryview]] = {}
        # physical pages holding a buffered byte, and the read pages on none
        # of them (by ppn too): an aligned load there reads memory directly
        buffered = set(writeback)
        read_fast: dict[int, int] = {}
        fast_vpns: dict[int, list[int]] = {}
        # whether stores may buffer part of an aligned word: only an
        # unaligned store makes one, as aligned and bulk stores fill words
        partial = False
        total_instr = 0
        va = head_va

        def page_of(ppn):
            """The chain's buffered page ``ppn``; a store is about to fill it."""
            page = stores.get(ppn)
            if page is None:
                page = stores[ppn] = bytearray(PAGE_SIZE), bytearray(PAGE_SIZE)
                buffered.add(ppn)
                for vpn in fast_vpns.pop(ppn, ()):
                    del read_fast[vpn]
            return page

        def load_word(a):
            a &= U32
            base = read_pages.get(a >> PAGE_SHIFT)
            if base is None:
                pa = walk(a, _READ)
                base = read_pages[a >> PAGE_SHIFT] = pa & ~PAGE_MASK
                if pa >> PAGE_SHIFT not in buffered:
                    read_fast[a >> PAGE_SHIFT] = base
                    fast_vpns.setdefault(pa >> PAGE_SHIFT, []).append(a >> PAGE_SHIFT)
            else:
                pa = base | (a & PAGE_MASK)
            if pa > _LAST_WORD_PA:
                raise MmuFault(a, Perm.READ)
            if pa >> PAGE_SHIFT in buffered or (pa + 3) >> PAGE_SHIFT in buffered:
                return _shown(stores, pa, _shown(writeback, pa, _u32_at(mem, pa)[0]))
            return _u32_at(mem, pa)[0]

        def store_word(a, val):
            nonlocal partial
            a &= U32
            base = write_pages.get(a >> PAGE_SHIFT)
            if base is None:
                pa = walk(a, _WRITE)
                write_pages[a >> PAGE_SHIFT] = pa & ~PAGE_MASK
            else:
                pa = base | (a & PAGE_MASK)
            if pa > _LAST_WORD_PA:
                raise MmuFault(a, Perm.WRITE)
            data, mask = stores.get(pa >> PAGE_SHIFT) or page_of(pa >> PAGE_SHIFT)
            lo = pa & PAGE_MASK
            if lo <= PAGE_SIZE - 4:
                _put_u32(data, lo, val & U32)
                mask[lo:lo + 4] = _FF[:4]
                if a & 3:
                    partial = True
                elif a >> PAGE_SHIFT not in write_fast:
                    write_fast[a >> PAGE_SHIFT] = data, memoryview(mask).cast("I")
            else:  # a word across the page edge: its last bytes start the next page
                partial = True
                raw, k = (val & U32).to_bytes(4, "little"), PAGE_SIZE - lo
                data[lo:], mask[lo:] = raw[:k], _FF[:k]
                data, mask = page_of((pa >> PAGE_SHIFT) + 1)
                data[:4 - k], mask[:4 - k] = raw[k:], _FF[:4 - k]

        def run_bulk(plan, regs, n):
            """Run the next ``n`` iterations of an affine self-loop at once
            (``shader._bulk_loop``), or return False to leave them to the
            compiled loop. First come the page walks those iterations make,
            in their order, faulting where they would. Then the loop runs in
            bulk only if no load reads a buffered byte and no two ops touch
            the same word, except a load and a later store of the same
            iteration. Unaligned accesses, and any run after an unaligned
            store of the chain, which may have left a word stored in part,
            fall back."""
            ops, body = plan
            if partial or any(regs[r] & 3 or regs[r] + 4 * n > 1 << 32 for _, r in ops):
                return False
            # one [first iteration, op, VA, words, pa] per op and VA page; as
            # every address is aligned, each page holds at least one word
            chunks = []
            for i, (_, r) in enumerate(ops):
                a, j = regs[r], 0
                while j < n:
                    k = min(n - j, (PAGE_SIZE - (a & PAGE_MASK)) >> 2)
                    chunks.append([j, i, a, k, 0])
                    j += k
                    a += 4 * k
            chunks.sort()
            for chunk in chunks:
                j, i, a, k, _ = chunk
                if ops[i][0]:
                    base = write_pages.get(a >> PAGE_SHIFT)
                    if base is None:
                        base = write_pages[a >> PAGE_SHIFT] = walk(a, _WRITE) & ~PAGE_MASK
                else:
                    load_word(a)  # walks the page on its first load
                    base = read_pages[a >> PAGE_SHIFT]
                chunk[4] = base | (a & PAGE_MASK)
            # in PA order, each chunk meets the earlier ones whose span holds
            # its first word, so every two chunks that share a word meet once
            active: list[list[int]] = []
            for x in sorted(chunks, key=itemgetter(4)):
                j, i, _, k, pa = x
                active = [y for y in active if y[4] + 4 * y[3] > pa]
                for y in active:
                    # two ops share a word only as a load and a later store
                    # of the same iteration
                    if y[1] != i and (ops[i][0] or ops[y[1]][0]) and (
                            y[4] - pa != 4 * (y[0] - j) or ops[min(i, y[1])][0]):
                        return False
                active.append(x)
                if not ops[i][0] and pa >> PAGE_SHIFT in buffered and any(
                        page is not None and page[1].find(0xFF, pa & PAGE_MASK,
                                                          (pa & PAGE_MASK) + 4 * k) >= 0
                        for page in (stores.get(pa >> PAGE_SHIFT),
                                     writeback.get(pa >> PAGE_SHIFT))):
                    return False

            def load(i):
                return b"".join([mem[pa:pa + 4 * k] for _, op, _, k, pa in chunks if op == i])

            def store(i, data):
                at = 0
                for _, op, _, k, pa in chunks:
                    if op == i:
                        page, mask = page_of(pa >> PAGE_SHIFT)
                        lo = pa & PAGE_MASK
                        page[lo:lo + 4 * k] = data[at:at + 4 * k]
                        mask[lo:lo + 4 * k] = _FF[:4 * k]
                        at += 4 * k

            body(regs, n, load, store)
            return True

        bound = (mem, _u32_at, _put_u32, read_fast, write_fast)
        try:
            seen = 0
            while va != 0:
                seen += 1
                if seen > CHAIN_MAX_JOBS:
                    return _PendingJob(None, {}, total_instr, va, JOB_BAD_STATE)
                if va % 4 != 0:
                    raise MmuFault(va, Perm.READ)
                # the first load fills the TLB and the page maps; a
                # descriptor on one page with no buffered word is then
                # read straight from memory, all 12 words at once
                first = load_word(va)
                fast = read_fast.get(va >> PAGE_SHIFT)
                if fast is not None and (va & PAGE_MASK) + DESCRIPTOR_BYTES <= PAGE_SIZE:
                    desc = _unpack_desc(mem, fast | (va & PAGE_MASK))
                else:
                    desc = [first] + [load_word(va + 4 * i)
                                      for i in range(1, DESCRIPTOR_BYTES // 4)]
                next_va, shader_va, shader_len, _affinity = desc[0], desc[1], desc[2], desc[3]
                params = desc[4:12]
                if shader_va % 4 != 0 or shader_len % 4 != 0 or shader_len > SHADER_MAX_BYTES:
                    raise MmuFault(shader_va, Perm.EXEC)
                # fetch straight from memory (buffered stores are not
                # visible to it), one walk and one slice per page; a
                # shader on one page is that page's slice
                code = b""
                off = 0
                while off < shader_len:
                    a = (shader_va + off) & U32
                    n = min(shader_len - off, PAGE_SIZE - (a & PAGE_MASK))
                    pa = walk(a, _EXEC)
                    code += mem[pa:pa + n]
                    off += n
                n, halted = execute(code, list(params), load_word, store_word,
                                    self.steps_left - total_instr, _MEM_PATH, bound,
                                    run_bulk)
                total_instr += n
                if not halted:  # out of steps, or ran off its end
                    return _PendingJob(None, {}, total_instr, None, JOB_BAD_STATE)
                va = next_va
        except MmuFault as f:
            return _PendingJob(None, {}, total_instr, f.va, JOB_MMU_FAULT)
        except ShaderFault:
            return _PendingJob(None, {}, total_instr, None, JOB_BAD_STATE)
        return _PendingJob(None, stores, total_instr, None, JOB_DONE)

    def _start_flush(self):
        if self._pending_flush is not None or not self.writeback:
            return
        jitter = self.rng.uniform(JITTER_LO, JITTER_HI)
        self._rng_drawn += 2
        runs = self._flush_runs = self._writeback_runs()
        nbytes = 0
        for pa, end, _, _, _ in runs:
            nbytes += end - pa
        cost = FLUSH_BASE_COST_NS + FLUSH_BYTE_COST_NS * nbytes
        self._pending_flush = self.vclock_ns + round(cost * self.clock_div * jitter)
        self.next_event_ns = self._next_event()

    def _writeback_runs(self) -> list[tuple[int, int, bytearray, int, int]]:
        """(pa, end pa, page data, start, end in the page) of each run of
        buffered bytes in the writeback."""
        runs = []
        for ppn, (data, mask) in self.writeback.items():
            base = ppn << PAGE_SHIFT
            for i, j in _runs(mask):
                runs.append((base + i, base + j, data, i, j))
        return runs

    # -- virtual time ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """A job is running or a flush is in flight. Unlike GPU_STATUS, an
        unflushed writeback alone is not busy: nothing of it will finish
        until the driver asks for the flush."""
        return self.job_state == JOB_RUNNING or self._pending_flush is not None

    @property
    def irq_line(self) -> int:
        """The interrupt line, a level: the raised GPU_IRQ_RAWSTAT bits
        that GPU_IRQ_MASK enables."""
        return self.irq_rawstat & self._stored["GPU_IRQ_MASK"]

    def _next_event(self) -> int | None:
        job, flush = self._pending_job, self._pending_flush
        t = None if job is None else job.finish_ns
        if flush is not None and (t is None or flush < t):
            t = flush
        return t

    def tick(self, dt_ns: int) -> None:
        """Advance the clock by ``dt_ns``, completing in time order the
        job and flush that fall due; a job that completes latches its
        interrupt in ``irq_rawstat``. The replayer calls this once per time
        it charges: a step's pacing pad, each register access (after
        ``reg_write`` or ``reg_read``) and each wait, so ``tick`` calls
        count those.

        ``next_event_ns`` caches ``_next_event()``, the pending job's or
        flush's earliest finish time, so a tick with nothing due and a
        driver's wait cost no call. Every site that starts, finishes,
        resets, restores or stalls a pending job or flush refreshes it:
        kicks, flush starts, completions, the power-on state, ``restore``
        and ``stall``; a new such site must refresh it too."""
        if dt_ns < 0:
            raise ValueError("dt_ns must be >= 0")
        end = self.vclock_ns + dt_ns
        t = self.next_event_ns
        while t is not None and t <= end:
            if t > self.vclock_ns:
                self.vclock_ns = t
            self._complete_due(t)
            t = self.next_event_ns
        self.vclock_ns = end

    def _complete_due(self, t: int) -> None:
        job = self._pending_job
        if job is not None and job.finish_ns is not None and job.finish_ns <= t:
            self._pending_job = None
            self.job_state = job.status
            if job.status == JOB_DONE:
                # the writeback adopts the pages it lacks and takes the
                # buffered runs of the others
                writeback = self.writeback
                if job.stores:
                    self._flush_runs = None
                for ppn, page in job.stores.items():
                    have = writeback.get(ppn)
                    if have is None:
                        writeback[ppn] = page
                        continue
                    data, mask = page
                    for i, j in _runs(mask):
                        have[0][i:j] = data[i:j]
                        have[1][i:j] = mask[i:j]
                self.irq_rawstat |= IRQ_JOB_DONE
            elif job.status == JOB_MMU_FAULT:
                self.fault_addr = (job.fault_va or 0) & U32
                self.irq_rawstat |= IRQ_MMU_FAULT
            # JOB_BAD_STATE raises nothing; the driver watchdog catches it
            self.next_event_ns = self._next_event()
        flush = self._pending_flush
        if flush is not None and flush <= t:
            self._pending_flush = None
            runs = self._flush_runs
            if runs is None:
                runs = self._writeback_runs()
            mem, top = self.mem, self.written_end
            for pa, end, data, i, j in runs:
                mem[pa:end] = data[i:j]
                if end > top:
                    top = end
            self.written_end = top
            self._dirty_pages.update(self.writeback)
            self.writeback = {}
            self._flush_runs = None
            self.next_event_ns = self._next_event()

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> DeviceSnapshot:
        if self._rng_base is None or self._rng_drawn > _RNG_REBASE_WORDS:
            self._rng_base, self._rng_drawn = self.rng.getstate(), 0
        return DeviceSnapshot(
            sku_id=self.sku.sku_id,
            vclock_ns=self.vclock_ns,
            regs=dict(self._stored),
            irq_rawstat=self.irq_rawstat,
            cores_on=self.cores_on,
            clock_div=self.clock_div,
            job_state=self.job_state,
            fault_addr=self.fault_addr,
            writeback=_copy_pages(self.writeback),
            tlb=dict(self.tlb),
            pending_job=_copy_job(self._pending_job),
            pending_flush=self._pending_flush,
            rng_state=(self._rng_base, self._rng_drawn),
        )

    def restore(self, snap: DeviceSnapshot) -> None:
        if snap.sku_id != self.sku.sku_id:
            raise SkuMismatch(f"snapshot from SKU {snap.sku_id:#x}, device is {self.sku.sku_id:#x}")
        self.vclock_ns = snap.vclock_ns
        self._stored = dict(snap.regs)
        self.irq_rawstat = snap.irq_rawstat
        self.cores_on = snap.cores_on
        self.clock_div = snap.clock_div
        self.job_state = snap.job_state
        self.fault_addr = snap.fault_addr
        self.writeback = _copy_pages(snap.writeback)
        self._flush_runs = None
        self.tlb = dict(snap.tlb)
        self._pending_job = _copy_job(snap.pending_job)
        self._pending_flush = snap.pending_flush
        self.next_event_ns = self._next_event()
        self._rng_base, self._rng_drawn = snap.rng_state
        self.rng.setstate(self._rng_base)
        self.rng.getrandbits(32 * self._rng_drawn)  # skip the words drawn

    # -- fault injection (test harness only) ---------------------------------------

    def offline_cores(self, mask: int) -> None:
        self.cores_on &= ~mask & U32

    def corrupt_pte(self, gpu_va: int) -> None:
        """Flip the VALID bit of the L2 entry mapping ``gpu_va``."""
        base = self.mmu_base
        if base == 0 or base + PAGE_SIZE > MEM_BYTES:
            raise ValueError("no page tables live")
        l1_entry = _u32_at(self.mem, base + ((gpu_va >> 22) & 0x3FF) * 4)[0]
        l2_base = l1_entry & ~(PAGE_SIZE - 1)
        if Perm.VALID not in self.sku.decode_perms(l1_entry & 0xF) \
                or l2_base + PAGE_SIZE > MEM_BYTES:
            raise ValueError(f"VA {gpu_va:#x} has no live mapping to corrupt")
        pte_pa = l2_base + ((gpu_va >> 12) & 0x3FF) * 4
        entry = _u32_at(self.mem, pte_pa)[0]
        valid_bit = self.sku.encode_perms(Perm.VALID)
        self.mem_write(pte_pa, ((entry ^ valid_bit) & U32).to_bytes(4, "little"))

    def stall(self, extra_ns: int) -> None:
        job = self._pending_job
        if job is not None and job.finish_ns is not None:
            job.finish_ns += extra_ns
            self.next_event_ns = self._next_event()
