"""Replay engine: the drop-in stand-in for the recorded GPU stack.

A session owns a device, loads one recording at a time, and interprets
its actions through a nano driver that knows only how to poke named
registers, edit page tables, copy memory and wait for interrupts. There
is no dynamic policy: every register touched during replay is named by
an action or belongs to the fixed reset/preempt sequences.

``replay()`` is one loop of up to five runs: the first run, then four
retries on divergence. Each retry resumes from the latest checkpoint
when checkpointing is on, else resets and reloads. The first retry
re-runs as recorded; later ones widen the pacing floors and wait
budgets from the eighth action before the failure to the end of the
recording. Each widening at least doubles the last; a retried wait or
poll that times out waits on, up to a cap, to measure how many times
slower than recorded the device ran (the report's ``slowdown``), and
the next retry starts at the power of two at or above that. A fifth
divergence ends the replay with a report naming the failing action and
its origin. Each run's kicks spend one grant of ``SHADER_STEP_BUDGET``
shader steps, so a replay runs at most ``MAX_ATTEMPTS + 1`` grants,
however many kicks the file holds. A kick counts its chain's steps as it
starts, and the first divergence after the grant runs out, even while
the job still runs, ends the replay: every retry would spend its grant
the same way, as the interpreter runs the same over the same memory.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field, replace

from . import device as dv
from .actions import (ActionClass, IoMode, LoadMemDump, MapGpuMem, MemDump, Recording,
                      RegRead, RegReadWait, RegWrite, UnmapGpuMem, WaitIrq,
                      canonical_actions)
from .device import Device, DeviceSnapshot, Perm, SKUS_BY_ID
from .recfmt import inflate
from .verifier import verify

NANO_ACCESS_NS = 20
LOAD_BYTE_NS = 0.05
INPUT_BYTE_NS = 0.1
PREEMPT_DRAIN_BUDGET_NS = 10_000_000
WATCHDOG_MULT = 10
WATCHDOG_FLOOR_NS = 1_000_000
POLL_BUDGET_MULT = 2
POLL_BUDGET_MIN = 4
POLL_PERIOD_NS = 200
CHECKPOINT_BYTE_COST_NS = 1.0
MAX_ATTEMPTS = 4
DELAY_WINDOW = 8
MEASURE_CAP = 64  # a timed-out retry waits on for up to this many budgets
MAX_PACING_MULT = 256
_L1_PA = dv.PAGE_SIZE  # page 0 stays reserved; load puts the L1 table next
_ZERO_PAGE = bytes(dv.PAGE_SIZE)
_put_u32 = struct.Struct("<I").pack_into
_NONDET = ActionClass.NONDET  # read once: a member read through its class is slow


class ReplayError(Exception):
    """Misuse or unrecoverable environment problem, distinct from a
    divergence (which is data, not an exception)."""


class LoadError(ReplayError):
    pass


class DivergenceKind(enum.Enum):
    VALUE_MISMATCH = "value_mismatch"
    IRQ_MISMATCH = "irq_mismatch"
    MMU_FAULT = "mmu_fault"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class DivergenceReport:
    action_index: int
    kind: DivergenceKind
    reg: str = ""
    expected: int = 0
    got: int = 0
    va: int = 0
    detail: str = ""
    origin: str = ""  # workload label + action index, set on final reports
    # how many times its recorded polls or residency a timed-out retried
    # wait took when it waited on; 0.0 when nothing was measured
    slowdown: float = 0.0


@dataclass(frozen=True)
class PreemptAck:
    delay_ns: int  # request-to-reset-done, virtual


@dataclass
class Checkpoint:
    token: object
    action_index: int
    jobs_done: int
    snapshot: DeviceSnapshot | None  # None: the load-time image
    # ppn -> page bytes of every page written since the load-time image was
    # last put back; any other page is the image's, or zero
    pages: dict[int, bytes]
    byte_count: int
    unmapped: frozenset[int]


@dataclass
class ReplayResult:
    ok: bool
    outputs: list[bytes] = field(default_factory=list)
    divergence: DivergenceReport | None = None
    recovery_attempts: int = 0
    vclock_ns: int = 0
    preempted: bool = False
    preempt_ack: PreemptAck | None = None
    event_log: list[tuple] = field(default_factory=list)


@dataclass
class ReplayConfig:
    honor_skips: bool = True
    checkpoint_every_jobs: int = 0  # 0 = checkpointing off
    force: bool = False


def poll_budget(a: RegReadWait, mult: int) -> int:
    return max(POLL_BUDGET_MULT * a.max_polls, POLL_BUDGET_MIN) * mult


def watchdog_ns(a: WaitIrq, mult: int) -> int:
    return max(WATCHDOG_MULT * a.residency_ns, WATCHDOG_FLOOR_NS) * mult


def expected_event_log(rec: Recording) -> list[tuple]:
    """The state-changing event sequence a correct replay must produce:
    the writes, STATE reads and interrupt waits of canonical_actions."""
    return [c for c in canonical_actions(rec) if c[0] in ("w", "r", "irq")]


class ReplaySession:
    """Owns one device; drives replays via step(). Not thread-safe except
    for request_preempt(), which only sets a flag read between actions."""

    # Slots: CPython 3.11 reads every attribute of an instance with a
    # __dict__ more slowly from its 30th on (measured: chain-64 replay 5%
    # slower at 30), and slots have no such edge.
    __slots__ = (
        "dev", "config", "reg_map", "loaded", "cursor", "jobs_done",
        "_rewound", "event_log", "divergence_log", "last_checkpoint",
        "preempted", "last_preempt_ack", "attempt_hook", "post_action_hook",
        "_preempt_request", "_preempt_request_t", "_ranges", "_page_pa",
        "_unmapped", "_live_bytes", "_l2_pages", "_window",
        "_at_job_boundary", "_free_pa", "_image", "_image_cp", "_cp_base",
        "_plan", "_inputs")

    def __init__(self, dev: Device, config: ReplayConfig | None = None):
        self.dev = dev
        self.config = config or ReplayConfig()
        self.reg_map = dev.reg_map
        self.loaded: Recording | None = None
        self.cursor = 0
        self.jobs_done = 0
        self._rewound = 0  # the ns that restores set the device clock back
        self.event_log: list[tuple] = []
        self.divergence_log: list[DivergenceReport] = []
        self.last_checkpoint: Checkpoint | None = None
        self.preempted = False
        self.last_preempt_ack: PreemptAck | None = None
        self.attempt_hook = None      # callable(device, attempt_index)
        self.post_action_hook = None  # callable(session, index, action)
        self._preempt_request = False  # set by request_preempt, from any thread
        self._preempt_request_t = 0
        # va -> (pages, pas, PTE permission bits of its first map in the
        # device's layout, VALID included)
        self._ranges: dict[int, tuple[int, list[int], int]] = {}
        self._page_pa: dict[int, int] = {}  # vpn -> pa of that VA page
        self._unmapped: set[int] = set()
        self._live_bytes = 0  # byte_count of a checkpoint taken now
        self._l2_pages: dict[int, int] = {}  # L1 index -> pa of its L2 table
        # (first action, multiplier, measure): the recovery ladder's pacing
        # window, and whether a wait that times out waits on to measure
        self._window: tuple[int, int, bool] = (0, 1, False)
        self._at_job_boundary = True
        self._free_pa = dv.PAGE_SIZE  # end of the pages load wrote; page 0 stays reserved
        # The session's table pages as load wrote them (ppn -> bytes), the
        # load-time image as a checkpoint, and the checkpoint that RAM
        # equals outside the device's dirty-page log.
        self._image: dict[int, bytearray] = {}
        self._image_cp: Checkpoint | None = None
        self._cp_base: Checkpoint | None = None
        # action index -> (chunks, ns, dump, over) of each LoadMemDump, as
        # load planned it: the dump's va_chunks, the ns it charges, and
        # (input index, VA, slice of that input) per declared input it lies over
        self._plan: dict[int, tuple[list[tuple[int, int, int]], int, MemDump,
                                    list[tuple[int, int, slice]]]] = {}
        self._inputs: dict[int, bytes] = {}  # input index -> the bytes supplied to this replay

    @property
    def vclock_consumed(self) -> int:
        """The device clock plus what restores set it back by: it grows by
        every ns a replay charges, so only its differences mean anything."""
        return self.dev.vclock_ns + self._rewound

    # -- nano driver -----------------------------------------------------------

    def _offset(self, name: str) -> int:
        reg = self.reg_map.by_name(name)
        if reg is None:
            raise ReplayError(f"recording names unknown register {name!r}")
        return reg.offset

    # _write and _read are the only frame between an action's handler and
    # the device: they resolve the name, access it and charge the access

    def _write(self, name: str, value: int):
        reg = self.reg_map.by_name(name)
        if reg is None:
            raise ReplayError(f"recording names unknown register {name!r}")
        dev = self.dev
        try:
            dev.reg_write(reg.offset, value)
        except dv.BusError as e:
            raise ReplayError(f"register write rejected: {e}") from e
        dev.tick(NANO_ACCESS_NS)

    def _read(self, name: str) -> int:
        reg = self.reg_map.by_name(name)
        if reg is None:
            raise ReplayError(f"recording names unknown register {name!r}")
        dev = self.dev
        try:
            v = dev.reg_read(reg.offset)
        except dv.BusError as e:
            raise ReplayError(f"register read rejected: {e}") from e
        dev.tick(NANO_ACCESS_NS)
        return v

    def _reset_sequence(self):
        self._write("GPU_CMD", dv.CMD_SOFT_RESET)
        raw = self._read("GPU_IRQ_RAWSTAT")
        if not raw & dv.IRQ_RESET_DONE:
            raise ReplayError("device did not acknowledge soft reset")
        self._write("GPU_IRQ_CLEAR", dv.IRQ_RESET_DONE)

    # -- memory plumbing ----------------------------------------------------------

    def _va_to_pa(self, va: int) -> int:
        pa = self._page_pa.get(va >> dv.PAGE_SHIFT)
        if pa is None:
            raise ReplayError(f"VA {va:#x} not assigned by this session")
        return pa + (va & dv.PAGE_MASK)

    def _write_va(self, va: int, data: bytes):
        for off, pa, chunk in dv.va_chunks(va, len(data), self._va_to_pa):
            self.dev.mem_write(pa, data[off:off + chunk])

    def _read_va(self, va: int, n: int) -> bytes:
        return b"".join(self.dev.mem_read(pa, chunk)
                        for _, pa, chunk in dv.va_chunks(va, n, self._va_to_pa))

    def _set_ptes(self, va: int, mapped: bool):
        """Point the range's PTEs at its pages, or clear them, with one
        write per L2 table: a range's PTEs in one table are adjacent."""
        _, pas, bits = self._ranges[va]
        l2_pages, write = self._l2_pages, self.dev.mem_write
        vpn, i = va >> dv.PAGE_SHIFT, 0
        while i < len(pas):
            k = min(len(pas) - i, 0x400 - (vpn & 0x3FF))  # to the table's end
            write(l2_pages[(vpn >> 10) & 0x3FF] + (vpn & 0x3FF) * 4,
                  struct.pack(f"<{k}I", *[pa | bits for pa in pas[i:i + k]]) if mapped
                  else bytes(4 * k))
            vpn, i = vpn + k, i + k

    # -- load -----------------------------------------------------------------------

    def load(self, rec: Recording):
        """Check the recording, then in one pass over the pages of its
        ranges (as the verifier's report sizes them) assign each a fresh
        page and write its L1 and L2 entries, and keep those table pages as
        the image every replay starts from. A dump reaches RAM only through
        its ``LoadMemDump``, which load plans once for every dump load (see
        ``_step_loaddump``). Even when forced, a load refuses a recording
        that breaks rule R4, R5, R7, R8 or R9: the layout and the action
        handlers trust what those rules check.
        A second load fully supersedes the first. A load that fails leaves
        no recording loaded, no plan, and RAM as it was; the next load or
        ``cleanup`` scrubs it."""
        # a load that fails at any step leaves none
        self.loaded, self._plan = None, {}
        cfg = self.config
        if rec.header.register_map_hash != self.reg_map.digest() and not cfg.force:
            raise LoadError("recording register map hash does not match replayer map")
        if rec.header.sku_id != self.dev.sku.sku_id and not cfg.force:
            raise LoadError(
                f"recording is for SKU {rec.header.sku_id:#x}, device is "
                f"{self.dev.sku.sku_id:#x}; patch it first")
        report = verify(rec, self.reg_map, dv.MEM_BYTES)
        if not report.ok and not cfg.force:
            raise LoadError(
                f"recording failed verification: {len(report.violations)} violations")
        for v in report.violations:
            if v.rule in ("R4", "R5", "R7", "R8", "R9"):
                raise LoadError(f"{v.rule} action {v.action_index}: {v.message}")
        sku = self.dev.sku
        pte_bits = dv.perm_table(SKUS_BY_ID.get(rec.header.sku_id, sku), sku, Perm.VALID)
        l1_bits = sku.encode_perms(Perm.VALID | Perm.READ)

        self.last_checkpoint = None
        self._inputs = {}
        self._window = (0, 1, False)

        page, shift = dv.PAGE_SIZE, dv.PAGE_SHIFT
        l1 = bytearray(page)
        image = {_L1_PA >> shift: l1}  # the table pages, ppn -> bytes
        tables: dict[int, bytearray] = {}  # L1 index -> its L2 table
        ranges, l2_pages, page_pa = {}, {}, {}
        # bump allocation after the L1 table: an L1 index's L2 table on its
        # first use, then the page
        end = _L1_PA + page
        for va, (pages, i) in report.ranges.items():
            if end + pages * page > dv.MEM_BYTES:
                raise LoadError("out of physical pages")
            # each range takes the permissions of its first map
            bits = pte_bits[rec.actions[i].perm_flags_encoded & 0xF]
            pas = []
            for vpn in range(va >> shift, (va >> shift) + pages):
                l1_idx = (vpn >> 10) & 0x3FF
                l2 = tables.get(l1_idx)
                if l2 is None:
                    l2 = tables[l1_idx] = image[end >> shift] = bytearray(page)
                    l2_pages[l1_idx] = end
                    _put_u32(l1, l1_idx * 4, end | l1_bits)
                    end += page
                _put_u32(l2, (vpn & 0x3FF) * 4, end | bits)
                pas.append(end)
                page_pa[vpn] = end
                end += page
            ranges[va] = (pages, pas, bits)
            if end > dv.MEM_BYTES:
                raise LoadError("out of physical pages")

        # Write, exactly once, each table page and each other page that may
        # hold bytes: outside the device's dirty-page log RAM equals
        # ``_cp_base`` below the previous footprint (the pages ``cleanup``
        # scrubs), and past it RAM is zero from the device's ``written_end`` on.
        stale = self.dev.take_dirty_pages()
        if self._cp_base is not None:
            stale.update(self._image, self._cp_base.pages)
        stale.update(range(self._free_pa >> shift, -(-self.dev.written_end >> shift)), image)
        stale.discard(0)  # page 0 stays reserved
        self._image = image
        self._rewrite(stale, {})
        self._free_pa = end
        self._ranges, self._l2_pages, self._page_pa = ranges, l2_pages, page_pa

        # Every dump load passed R4, so it lies in one range, whose pages
        # ascend: a dump whose last page lies as far past its first as its
        # VA does is one chunk, and va_chunks splits any other.
        inputs = [(j, d.gpu_va, d.gpu_va + d.len_bytes) for j, d in enumerate(rec.inputs())]
        self._plan = plan = {}
        for i, d in report.loads:
            va, n = d.gpu_va, d.raw_len
            first, last = va >> shift, (va + n - 1) >> shift
            if n and page_pa[last] - page_pa[first] == (last - first) * page:
                chunks = [(0, page_pa[first] + (va & dv.PAGE_MASK), n)]
            else:
                chunks = list(dv.va_chunks(va, n, self._va_to_pa))
            over = []
            for j, lo, hi in inputs:
                if lo < va + n and va < hi:
                    at = max(va, lo)
                    over.append((j, at, slice(at - lo, min(va + n, hi) - lo)))
            plan[i] = (chunks, round(n * LOAD_BYTE_NS), d, over)

        # the image as a checkpoint: no page written since it, every range
        # mapped; every page from the L1 table on is a table or range page
        self._cp_base = self._image_cp = Checkpoint(
            token=None, action_index=0, jobs_done=0, snapshot=None, pages={},
            byte_count=end - _L1_PA, unmapped=frozenset())
        self._put_back(self._cp_base)
        self.loaded = rec

    def _rewrite(self, stale: set[int], pages: dict[int, bytes]) -> None:
        """Write each page of ``stale`` as ``pages`` holds it, else as the
        image does, else zero; then start a new dirty-page log."""
        image, write = self._image, self.dev.mem_write
        for ppn in stale:
            write(ppn << dv.PAGE_SHIFT, pages.get(ppn) or image.get(ppn, _ZERO_PAGE))
        self.dev.take_dirty_pages()

    def _set_mmu_base(self):
        self.dev.reg_write(self._offset("MMU_TABLE_BASE_LO"), _L1_PA & 0xFFFFFFFF)
        self.dev.reg_write(self._offset("MMU_TABLE_BASE_HI"), _L1_PA >> 32)

    def _put_back(self, cp: Checkpoint):
        """Make RAM and the device as of ``cp``, move the cursor to where
        it was taken, and grant the device ``SHADER_STEP_BUDGET`` steps:
        every load, reload and restore, and so every replay attempt, gets
        one grant. RAM equals ``_cp_base`` outside the device's dirty-page
        log, so a put-back to it writes the logged pages only; any other
        also writes every page either one holds."""
        stale = self.dev.take_dirty_pages()
        if cp is not self._cp_base:
            stale.update(self._cp_base.pages, cp.pages)
        self._rewrite(stale, cp.pages)
        if cp.snapshot is None:  # the image: program the MMU afresh
            self._set_mmu_base()
            self.dev.reg_write(self._offset("GPU_CMD"), dv.CMD_TLB_INVALIDATE)
        else:
            self._rewound += self.dev.vclock_ns - cp.snapshot.vclock_ns
            self.dev.restore(cp.snapshot)
        self._unmapped = set(cp.unmapped)
        self._live_bytes = cp.byte_count
        self.cursor, self.jobs_done = cp.action_index, cp.jobs_done
        self._cp_base = cp
        self._at_job_boundary = True
        self.dev.steps_left = dv.SHADER_STEP_BUDGET

    def _reload(self):
        """Fresh start for a new replay or a recovery attempt."""
        self._reset_sequence()
        self._put_back(self._image_cp)

    # -- stepping -------------------------------------------------------------------

    def step(self) -> DivergenceReport | None:
        """Execute the action at the cursor. Returns a report on
        divergence (cursor stays on the failing action), else None.

        Every action runs here, in the call shape the benchmark's tracer
        counts: ``Device.tick`` for a non-zero pacing pad, then the
        action's handler, whose register accesses are each
        ``Device.reg_write`` or ``reg_read`` then ``Device.tick``, one
        frame (``_write`` or ``_read``) below it. A dump load is a
        ``Device.mem_write`` per chunk that ``load`` planned, straight from
        its handler, then ``_write_va`` per supplied input it lies over, and
        one ``Device.tick``. A tick with nothing due makes no further call:
        the device caches its next event time and refreshes it wherever a
        pending job or flush changes."""
        rec = self.loaded
        if rec is None:
            raise ReplayError("no recording loaded")
        i = self.cursor
        if i >= len(rec.actions):
            raise ReplayError("cursor past end of recording")
        a = rec.actions[i]
        kind = type(a)
        lo, mult, _ = self._window
        if i < lo:
            mult = 1
        pad = a.min_interval_ns if self.config.honor_skips else a.raw_interval_ns
        if pad:
            self.dev.tick(pad * mult)
        report = _HANDLERS.get(kind, _unknown_action)(self, a, mult)
        if report is not None:
            self.divergence_log.append(report)
            return report
        if self.post_action_hook is not None:
            self.post_action_hook(self, i, a)
        self.cursor = i + 1
        if kind is WaitIrq and a.expect_rawstat & dv.IRQ_JOB_DONE:
            self.jobs_done += 1
            self._at_job_boundary = True
            every = self.config.checkpoint_every_jobs
            if every and self.jobs_done % every == 0:
                self.checkpoint()
        elif kind is RegWrite and a.reg_name == "JOB_START":
            self._at_job_boundary = False
        return None

    # One handler per action type, keyed by type in _HANDLERS: each
    # executes its action and returns a report on divergence, else None.

    def _step_write(self, a: RegWrite, mult: int) -> None:
        self._write(a.reg_name, a.value)
        self.event_log.append(("w", a.reg_name, a.value))
        if a.reg_name == "GPU_CMD" and a.value == dv.CMD_SOFT_RESET:
            # reset wipes the MMU base; replaying pages live elsewhere
            # than at record time, so re-arming it is the nano driver's
            # fixed post-reset step
            self._set_mmu_base()

    def _step_read(self, a: RegRead, mult: int) -> DivergenceReport | None:
        v = self._read(a.reg_name)
        if a.state_class is _NONDET:
            return None  # read and discard
        if v != a.expect_value:
            return DivergenceReport(self.cursor, DivergenceKind.VALUE_MISMATCH,
                                    reg=a.reg_name, expected=a.expect_value, got=v)
        self.event_log.append(("r", a.reg_name, v))
        return None

    def _step_poll(self, a: RegReadWait, mult: int) -> DivergenceReport | None:
        budget = poll_budget(a, mult)
        # read with no device event pending, a register reads the same ever
        # after. A measuring poll that times out reads on while an event is
        # pending, up to MEASURE_CAP budgets in all, and checks for one
        # before each tick (an event can complete in the tick that follows
        # a read)
        report = None
        n = 0
        idle = self.dev.next_event_ns is None
        while True:
            v = self._read(a.reg_name)
            n += 1
            if (v & a.mask) == a.expect_value:
                if report is None:
                    return None
                return replace(
                    report, slowdown=n / a.max_polls if a.max_polls else 0.0)
            if report is None and (n >= budget or idle):
                report = DivergenceReport(
                    self.cursor, DivergenceKind.TIMEOUT, reg=a.reg_name,
                    expected=a.expect_value, got=v & a.mask,
                    detail=(f"nothing pending after {n} of {budget} polls" if idle
                            else f"poll budget {budget} exhausted"))
                if not self._window[2]:
                    return report
            if report is not None and (n >= MEASURE_CAP * budget
                                       or self.dev.next_event_ns is None):
                return report
            self.dev.tick(POLL_PERIOD_NS)
            idle = self.dev.next_event_ns is None

    def _step_loaddump(self, a: LoadMemDump, mult: int) -> None:
        """Copy the dump into its pages as ``load`` planned them, one
        ``Device.mem_write`` per chunk of the dump's ``raw`` bytes, or of
        its payload inflated here when the decoder kept none. Then write
        each supplied input the dump lies over, in declaration order (the
        supplied bytes win over it), and charge the dump's bytes in one
        ``Device.tick``."""
        chunks, ns, d, over = self._plan[self.cursor]
        data = d.raw
        if data is None:
            data = inflate(d.payload, d.raw_len)
        write = self.dev.mem_write
        for off, pa, n in chunks:
            write(pa, data[off:off + n])
        for i, va, part in over:
            buf = self._inputs.get(i)
            if buf is not None:
                self._write_va(va, buf[part])
        self.dev.tick(ns)

    def _step_map(self, a: MapGpuMem, mult: int) -> None:
        if a.gpu_va in self._unmapped:
            self._unmapped.discard(a.gpu_va)
            self._live_bytes += dv.PAGE_SIZE * self._ranges[a.gpu_va][0]
            self._set_ptes(a.gpu_va, True)
        self._write("GPU_CMD", dv.CMD_TLB_INVALIDATE)

    def _step_unmap(self, a: UnmapGpuMem, mult: int) -> None:
        self._set_ptes(a.gpu_va, False)
        if a.gpu_va not in self._unmapped:
            self._unmapped.add(a.gpu_va)
            self._live_bytes -= dv.PAGE_SIZE * self._ranges[a.gpu_va][0]
        self._write("GPU_CMD", dv.CMD_TLB_INVALIDATE)

    def _step_waitirq(self, a: WaitIrq, mult: int) -> DivergenceReport | None:
        watchdog = watchdog_ns(a, mult)
        start = self.dev.vclock_ns
        deadline = start + watchdog
        # a measuring wait that times out waits on, up to MEASURE_CAP
        # watchdogs in all, for the interrupt and nothing else
        report = None
        while True:
            raw = self.dev.irq_rawstat
            unexpected = raw & ~a.expect_rawstat & dv.IRQ_ALL
            if unexpected:
                if report is not None:
                    return report
                if unexpected & dv.IRQ_MMU_FAULT:
                    return DivergenceReport(self.cursor, DivergenceKind.MMU_FAULT,
                                            va=self._read("MMU_FAULT_ADDR"))
                return DivergenceReport(self.cursor, DivergenceKind.IRQ_MISMATCH,
                                        expected=a.expect_rawstat, got=raw)
            if raw & a.expect_rawstat == a.expect_rawstat:
                if report is not None:
                    return replace(report, slowdown=(
                        (self.dev.vclock_ns - start) / a.residency_ns if a.residency_ns else 0.0))
                self.event_log.append(("irq", a.expect_rawstat))
                return None
            nxt = self.dev.next_event_ns
            if report is None and (nxt is None or nxt > deadline):
                # nothing falls due by the deadline, so ``raw`` stays
                self.dev.tick(max(0, deadline - self.dev.vclock_ns))
                report = DivergenceReport(
                    self.cursor, DivergenceKind.TIMEOUT,
                    expected=a.expect_rawstat, got=raw, detail=self._timeout_detail(watchdog))
                if not self._window[2]:
                    return report
            elif nxt is None:  # nothing more falls due: say what the job unit latched
                return replace(report, detail=self._timeout_detail(watchdog))
            elif nxt > start + MEASURE_CAP * watchdog:
                return report
            else:
                self.dev.tick(nxt - self.dev.vclock_ns)

    def _timeout_detail(self, watchdog: int) -> str:
        """A timed-out wait's detail: whether the device spent its grant,
        which every retry would spend again, and, as a job that latches
        JOB_BAD_STATE raises nothing, whether it latched that state."""
        detail = f"no interrupt within {watchdog} ns"
        if self.dev.steps_left == 0:
            detail += (f"; the device spent its {dv.SHADER_STEP_BUDGET}-step "
                       "grant, so no retry is made")
        if self.dev.job_state == dv.JOB_BAD_STATE:
            detail += f"; job status {dv.JOB_BAD_STATE} (bad state)"
        return detail

    # -- replay / recovery -------------------------------------------------------------

    def _normalize_inputs(self, inputs) -> dict[int, bytes]:
        decls = self.loaded.inputs()
        if inputs is None:
            supplied = {}
        elif isinstance(inputs, (bytes, bytearray)):
            supplied = {0: bytes(inputs)}
        elif isinstance(inputs, dict):
            supplied = dict(inputs)
        else:
            supplied = {i: bytes(b) for i, b in enumerate(inputs)}
        for i, d in enumerate(decls):
            buf = supplied.get(i)
            if buf is None:
                if d.mode is IoMode.BY_ADDRESS:
                    raise ReplayError(f"input {i} is required (by-address)")
                continue
            if len(buf) != d.len_bytes:
                raise ReplayError(
                    f"input {i} is {len(buf)} bytes, recording expects {d.len_bytes}")
        return supplied

    def write_inputs(self, inputs) -> None:
        """Deposit input bytes at their recorded GPU addresses. Takes the
        input forms replay() takes. Supplied bytes also win over the dumps
        loaded later (an input captured ``both`` ways is baked into one);
        an input left out keeps the baked bytes."""
        supplied = self._normalize_inputs(inputs)
        self._inputs = {}
        for i, d in enumerate(self.loaded.inputs()):
            buf = supplied.get(i)
            if buf is not None:
                self._inputs[i] = buf
                self._write_va(d.gpu_va, buf)
                self.dev.tick(round(len(buf) * INPUT_BYTE_NS))

    def _run_once(self, inputs: dict[int, bytes]) -> DivergenceReport | str | None:
        self.write_inputs(inputs)
        actions = self.loaded.actions
        while self.cursor < len(actions):
            if self._preempt_request:
                self._preempt_request = False
                self._do_preempt(self._preempt_request_t)
                return "preempted"
            report = self.step()
            if report is not None:
                return report
        return None

    def replay(self, inputs=None) -> ReplayResult:
        """Execute the loaded recording on new inputs; retry on divergence
        as the module docstring says. Returns outputs extracted from the
        OUTPUT regions. ``vclock_ns`` counts every retry's reload but not
        the reload before attempt 0, which only undoes an earlier replay.
        ``attempt_hook`` sees each attempt's own starting state: it runs
        after the reload or restore, just before the attempt's actions."""
        if self.loaded is None:
            raise ReplayError("no recording loaded")
        supplied = self._normalize_inputs(inputs)
        self.preempted = False
        self.divergence_log = []
        self.last_checkpoint = None  # recovery never resumes an earlier replay
        if self.cursor != 0:
            self._reload()  # a session replays its recording any number of times
        start = self.vclock_consumed
        lo, mult = 0, 1
        try:
            for attempt in range(MAX_ATTEMPTS + 1):
                if attempt:
                    if attempt > 1:
                        # from the window on to the end: the jobs after the
                        # failure run as slowly as the one that failed
                        lo = max(0, outcome.action_index - DELAY_WINDOW + 1)
                        mult = min(MAX_PACING_MULT,
                                   max(2 * mult, _pow2_at_least(outcome.slowdown)))
                    # a timed-out wait measures only when a next attempt can use it
                    self._window = (lo, mult, attempt < MAX_ATTEMPTS)
                    if self.config.checkpoint_every_jobs and self.last_checkpoint is not None:
                        self.restore(self.last_checkpoint)
                    else:
                        self._reload()
                self.event_log = []
                if self.attempt_hook is not None:
                    self.attempt_hook(self.dev, attempt)
                outcome = self._run_once(supplied)
                if not isinstance(outcome, DivergenceReport) or self.dev.steps_left == 0:
                    break
        finally:
            self._window = (0, 1, False)
        result = ReplayResult(ok=outcome is None, recovery_attempts=attempt,
                              vclock_ns=self.vclock_consumed - start,
                              event_log=list(self.event_log))
        if outcome == "preempted":
            result.preempted = True
            result.preempt_ack = self.last_preempt_ack
        elif outcome is not None:
            label = self.loaded.header.workload_label
            result.divergence = replace(outcome, origin=f"{label}#action{outcome.action_index}")
        else:
            result.outputs = [self._read_va(d.gpu_va, d.len_bytes)
                              for d in self.loaded.outputs()]
        return result

    # -- checkpoint / restore ---------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Copy the pages written since the load-time image. Only those
        written since the previous checkpoint or restore of this replay, or
        else since the image, are read again; the rest shares its bytes.
        ``byte_count``, and so the simulated cost, covers every live range
        and table page."""
        if self.loaded is None:
            raise ReplayError("no recording loaded")
        if not self._at_job_boundary:
            raise ReplayError("checkpoint only at a job boundary")
        pages = dict(self._cp_base.pages)
        for ppn in self.dev.take_dirty_pages():
            pages[ppn] = self.dev.mem_read(ppn << dv.PAGE_SHIFT, dv.PAGE_SIZE)
        nbytes = self._live_bytes
        cp = Checkpoint(token=(id(self), self.loaded), action_index=self.cursor,
                        jobs_done=self.jobs_done, snapshot=self.dev.snapshot(),
                        pages=pages, byte_count=nbytes,
                        unmapped=frozenset(self._unmapped))
        self.dev.tick(round(nbytes * CHECKPOINT_BYTE_COST_NS))
        self.last_checkpoint = self._cp_base = cp
        return cp

    def restore(self, cp: Checkpoint) -> None:
        """Put back device state and RAM as of ``cp``."""
        if self.loaded is None or cp.token != (id(self), self.loaded):
            raise ReplayError("checkpoint belongs to a different session or recording")
        self._put_back(cp)
        self.preempted = False

    # -- preemption ----------------------------------------------------------------

    def request_preempt(self) -> None:
        """Thread-safe: ask the running replay loop to yield the GPU at the
        next action boundary."""
        self._preempt_request_t = self.dev.vclock_ns
        self._preempt_request = True

    def preempt(self) -> PreemptAck:
        """Immediate handoff; legal between steps."""
        return self._do_preempt(self.dev.vclock_ns)

    def _do_preempt(self, t_request: int) -> PreemptAck:
        self._write("GPU_CMD", dv.CMD_CACHE_FLUSH)
        deadline = self.dev.vclock_ns + PREEMPT_DRAIN_BUDGET_NS
        while self._read("GPU_STATUS") & dv.STATUS_DIRTY:
            nxt = self.dev.next_event_ns
            if nxt is None or nxt > deadline:
                break
            self.dev.tick(nxt - self.dev.vclock_ns)
        self._write("GPU_CMD", dv.CMD_TLB_INVALIDATE)
        self._reset_sequence()
        ack = PreemptAck(delay_ns=self.dev.vclock_ns - t_request)
        self.preempted = True
        self.last_preempt_ack = ack
        return ack

    # -- lifecycle -------------------------------------------------------------------

    def cleanup(self) -> None:
        """Reset the device and scrub every page this session may have
        written since its first load laid out RAM. Outside the device's
        dirty-page log RAM equals ``_cp_base``, the image overlaid with its
        pages, so those three sets hold every page that may be non-zero."""
        image, self._image = self._image, {}
        if self._cp_base is not None:
            stale = self.dev.take_dirty_pages()
            stale.update(image, self._cp_base.pages)
            self._rewrite(stale, {})  # with no image, every page zero
            self._cp_base = None
        self.loaded, self._plan = None, {}
        self._reset_sequence()
        self.dev.release(self)


def _pow2_at_least(x: float) -> int:
    return 1 << (max(1, math.ceil(x)) - 1).bit_length()


def _unknown_action(session: ReplaySession, a, mult: int):
    raise ReplayError(f"unknown action {a!r}")


_HANDLERS = {
    RegWrite: ReplaySession._step_write,
    RegRead: ReplaySession._step_read,
    RegReadWait: ReplaySession._step_poll,
    WaitIrq: ReplaySession._step_waitirq,
    MapGpuMem: ReplaySession._step_map,
    UnmapGpuMem: ReplaySession._step_unmap,
    LoadMemDump: ReplaySession._step_loaddump,
}


def init(dev: Device, config: ReplayConfig | None = None) -> ReplaySession:
    """Acquire the device with a reset; fails if it is already owned."""
    session = ReplaySession(dev, config)
    dev.claim(session)
    try:
        session._reset_sequence()
    except Exception:
        dev.release(session)
        raise
    return session


@dataclass
class SequenceResult:
    ok: bool
    outputs: list[bytes]
    results: list[ReplayResult]
    vclock_ns: int


def replay_sequence(session: ReplaySession, recs: list[Recording],
                    inputs=None) -> SequenceResult:
    """Replay recordings in order, wiring each one's output to the next
    one's input when the descriptor lengths line up."""
    carry: list[bytes] | None = None
    results = []
    total = 0
    for k, rec in enumerate(recs):
        session.load(rec)
        if k == 0:
            feed = inputs
        else:
            decls = rec.inputs()
            feed = {}
            if carry and decls and len(carry[0]) == decls[0].len_bytes:
                feed = {0: carry[0]}
        res = session.replay(feed)
        results.append(res)
        total += res.vclock_ns
        if not res.ok:
            return SequenceResult(False, [], results, total)
        carry = res.outputs
    return SequenceResult(True, carry or [], results, total)
