"""Recorder: turns one instrumented stack run into a replayable Recording.

Attaches to the refstack driver's accessor stream and
  * summarizes register traffic into replay actions (poll loops collapse
    into a single RegReadWait),
  * dumps GPU-mapped memory right before each job kick, filtered by page
    role (executable pages always kept; internal scratch, buffers never
    CPU-mapped and by-address input regions never captured) and
    deduplicated against the bytes last dumped at the same address,
  * classifies the gap before each action as skippable iff the GPU was
    idle throughout it. Only a driver access starts device work, so in a
    gap the device can only go from busy to idle: it was idle for all of
    the gap iff it was idle as the action before the gap ended, which the
    trace samples (``Device.busy``) as it sees each access,
  * discovers input/output GPU addresses by injecting high-entropy magic
    input and matching it in the dumps, re-running with fresh magic until
    output matches are unambiguous.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from operator import attrgetter

from . import device as dv
from .actions import (ActionClass, DumpOrigin, Granularity, IoDescriptor,
                      IoMode, IoRole, LoadMemDump, MapGpuMem, MemDump,
                      Recording, RecordingHeader, RegRead, RegReadWait,
                      RegWrite, ReplayAction, UnmapGpuMem, WaitIrq,
                      slot_factory)
from .device import StateClass
from .recfmt import deflate
from .refstack import (AllocFlags, GpuStack, PortEvent,
                       StackListener, WorkloadGraph)

DUMP_BYTE_NS = 0.2  # recording overhead charged while dumping (GPU idle)
_new_dump = slot_factory(MemDump)
_new_write, _new_read, _new_poll, _new_wait, _new_map, _new_unmap = map(
    slot_factory, (RegWrite, RegRead, RegReadWait, WaitIrq, MapGpuMem, UnmapGpuMem))


class DiscoveryError(Exception):
    pass


class HarnessError(ValueError):
    """A harness that does not fit the workload it records."""


@dataclass
class RecordHarness:
    """Record-time configuration supplied by the developer."""

    input_modes: dict[int, IoMode] = field(default_factory=dict)
    magic_seed: int = 1
    max_trials: int = 5
    granularity: Granularity = Granularity.MONOLITHIC
    pre_scan_hook: object = None  # test hook: callable(stack) before the final scan


_HARNESS_FORMS = {
    "input": "input <idx> by_value|by_address|both",
    "magic_seed": "magic_seed <n>",
    "trials": "trials <n>",
    "granularity": "granularity monolithic|per_layer",
}


def _member(word: str, kind: type[enum.Enum]):
    try:
        return kind[word.upper()]
    except KeyError:
        names = ", ".join(m.name.lower() for m in kind)
        raise ValueError(f"{word!r} is not one of {names}") from None


def parse_harness(text: str) -> RecordHarness:
    """One directive a line, in a form of ``_HARNESS_FORMS``. A bad line
    is a ValueError that names the line and says what is wrong with it."""
    h = RecordHarness()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        with dv.naming_line("harness", lineno, raw):
            form = _HARNESS_FORMS.get(key)
            if form is None:
                raise ValueError(f"unknown directive {key!r}")
            if len(args) != form.count(" "):
                raise ValueError(f"want {form!r}")
            if key == "input":
                h.input_modes[dv.number(args[0])] = _member(args[1], IoMode)
            elif key == "magic_seed":
                h.magic_seed = dv.number(args[0])
            elif key == "trials":
                h.max_trials = dv.number(args[0])
                if h.max_trials < 1:
                    raise ValueError("trials must be at least 1")
            else:
                h.granularity = _member(args[0], Granularity)
    return h


# ---------------------------------------------------------------------------
# Run tracing
# ---------------------------------------------------------------------------

_GPU_EXEC = AllocFlags.GPU_EXEC.value
_SCRATCH = AllocFlags.INTERNAL_SCRATCH.value
_CPU_VISIBLE = AllocFlags.CPU_VISIBLE.value


@dataclass
class _Region:
    """One snapshot of a mapped region. Every kick shares it until one of
    the region's pages is written."""

    gpu_va: int
    len_bytes: int  # logical mapping length; dumps and scans cover whole pages
    page_len: int
    perm_bits: int
    flags: int  # AllocFlags bits
    pages: set[int]  # physical page numbers, fixed while mapped
    content: bytes | None = None  # None until first read


@dataclass
class _Entry:
    ev: PortEvent
    t0: int
    t1: int
    # pre_kick entries: the regions mapped or rewritten since the previous
    # kick, in VA order
    changed: list[_Region] | None = None
    idle: bool = True  # the device was idle at t1 (a kick's: after its dump charge)


class _RunTrace(StackListener):
    """Listener that captures everything one build pass needs. A snapshot
    re-reads only the regions on pages the device logged as written."""

    def __init__(self, stack: GpuStack):
        self.stack = stack
        self.entries: list[_Entry] = []
        self.layer_marks: dict[int, int] = {}        # layer -> first entry index
        self.layer_regions: dict[int, list[_Region]] = {}
        self._regions: dict[int, _Region] = {}       # live VA -> its latest snapshot
        self._page_va: dict[int, int] = {}           # physical page -> live VA
        self._unread: set[int] = set()               # VAs mapped, not yet read
        self._changed: dict[int, _Region] = {}       # mapped or rewritten since the last kick
        self._live_bytes = 0

    def on_layer_start(self, index):
        if index not in self.layer_marks:
            self.layer_marks[index] = len(self.entries)
            self._refresh()
            self.layer_regions[index] = sorted(self._regions.values(),
                                               key=attrgetter("gpu_va"))

    def on_port_event(self, ev: PortEvent):
        entry = _Entry(ev, ev.t0, ev.t1)
        va = ev.gpu_va
        if ev.kind == "map":
            page_len = max(1, -(-ev.len_bytes // dv.PAGE_SIZE)) * dv.PAGE_SIZE
            pages = dv.span_pages(va, page_len, self.stack.driver.va_to_pa)
            self._regions[va] = _Region(va, ev.len_bytes, page_len, ev.perm_bits,
                                        ev.flags.value, pages)
            self._page_va.update(dict.fromkeys(pages, va))
            self._unread.add(va)
            self._live_bytes += ev.len_bytes
        elif ev.kind == "unmap":
            r = self._regions.pop(va)
            for p in r.pages:
                del self._page_va[p]
            self._unread.discard(va)
            self._changed.pop(va, None)
            self._live_bytes -= r.len_bytes
        elif ev.kind == "pre_kick":
            self._refresh()
            entry.changed = [self._changed[va] for va in sorted(self._changed)]
            self._changed = {}
            self.stack.sleep(round(self._live_bytes * DUMP_BYTE_NS))
            entry.t1 = self.stack.dev.vclock_ns
        entry.idle = not self.stack.dev.busy
        self.entries.append(entry)

    def _refresh(self) -> None:
        """Re-read the regions never read and those on pages written since
        the last refresh. A region whose bytes did not change keeps its
        snapshot."""
        page_va = self._page_va
        stale = {page_va[p] for p in self.stack.dev.take_dirty_pages() if p in page_va}
        stale |= self._unread
        self._unread = set()
        regions = self._regions
        for va in stale:
            r = regions[va]
            content = self.stack.mem_read_va(va, r.page_len)
            if content != r.content:
                r = regions[va] = _Region(r.gpu_va, r.len_bytes, r.page_len,
                                          r.perm_bits, r.flags, r.pages, content)
                self._changed[va] = r

    def final_cpu_visible(self) -> list[_Region]:
        return [_Region(r.gpu_va, r.len_bytes, r.page_len, r.perm_bits, r.flags, r.pages,
                        self.stack.mem_read_va(r.gpu_va, r.page_len))
                for r in self._regions.values() if r.flags & _CPU_VISIBLE]


# ---------------------------------------------------------------------------
# I/O discovery
# ---------------------------------------------------------------------------

def magic_bytes(seed: int, trial: int, n: int) -> bytes:
    return random.Random(seed * 1000003 + trial).randbytes(n)


@dataclass
class TrialInfo:
    trial: int
    input_candidates: set[int]
    output_candidates: set[int]


def _find_all(hay: bytes, needle: bytes) -> list[int]:
    out = []
    i = hay.find(needle)
    while i != -1:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def _scan_regions(regions: list[_Region], needle: bytes) -> set[int]:
    vas = set()
    for r in regions:
        for off in _find_all(r.content, needle):
            vas.add(r.gpu_va + off)
    return vas


@dataclass
class RecordResult:
    recordings: list[Recording]
    io_table: tuple[IoDescriptor, ...]
    trials: list[TrialInfo]
    skipped_intervals: int
    kept_intervals: int
    raw_dump_bytes: int


def record(stack: GpuStack, graph: WorkloadGraph,
           harness: RecordHarness | None = None) -> RecordResult:
    """Record ``graph`` on ``stack``. Runs the workload once, plus extra
    runs with fresh magic while input/output addresses stay ambiguous."""
    harness = harness or RecordHarness()
    in_len = graph.input_elems * 4
    # this stack packs all operands into one buffer, input 0
    unknown = sorted(harness.input_modes.keys() - {0})
    if unknown:
        raise HarnessError(f"harness names input {unknown[0]}, but the workload "
                           f"packs all its operands into input 0")

    in_cands: set[int] = set()
    in_cands_dumps: set[int] = set()
    out_cands: set[int] | None = None
    trials: list[TrialInfo] = []

    for trial in range(1, harness.max_trials + 1):
        magic = magic_bytes(harness.magic_seed, trial, in_len)
        trace = _RunTrace(stack)
        stack.listener = trace
        try:
            output = stack.run_workload(graph, magic)
        finally:
            stack.listener = None
        if harness.pre_scan_hook is not None:
            harness.pre_scan_hook(stack)
        final_regions = trace.final_cpu_visible()
        # each distinct kick snapshot once: a kick shares the rest with an
        # earlier kick, at the same VA with the same bytes
        kick_cpuvis = [r for e in trace.entries if e.changed
                       for r in e.changed if r.flags & _CPU_VISIBLE]

        dump_hits = _scan_regions(kick_cpuvis, magic)
        all_hits = dump_hits | _scan_regions(final_regions, magic)
        if not all_hits:
            raise DiscoveryError("input 0: magic never reached GPU memory intact")
        # candidates are the hits of every trial so far; when they run out,
        # the next trial starts over from its own hits
        in_cands = (in_cands or all_hits) & all_hits
        in_cands_dumps = (in_cands_dumps or dump_hits) & dump_hits
        # structural aliases (e.g. pure copies) show up only after the
        # data flowed; matches inside the dumps take precedence
        if len(in_cands) > 1 and len(in_cands_dumps) == 1:
            in_cands = in_cands_dumps

        run_out = {va for va in _scan_regions(final_regions, output)
                   if not any(c < va + len(output) and va < c + in_len
                              for c in in_cands)}
        if not run_out:
            raise DiscoveryError("output bytes not found in GPU memory")
        out_cands = run_out if out_cands is None else (out_cands & run_out)

        trials.append(TrialInfo(trial, in_cands, out_cands))
        if len(in_cands) == 1 and len(out_cands) == 1:
            break
    else:
        which = []
        if trials and len(in_cands) != 1:
            which.append(f"input 0 ~ {sorted(map(hex, in_cands))}")
        if out_cands is None or len(out_cands) != 1:
            shown = sorted(map(hex, out_cands or []))[:8]
            which.append(f"output ~ {shown}")
        raise DiscoveryError(
            f"ambiguous after {harness.max_trials} trials: {'; '.join(which)}")

    io_table = []
    mode = harness.input_modes.get(0, IoMode.BY_ADDRESS)
    if mode in (IoMode.BY_ADDRESS, IoMode.BOTH):
        io_table.append(IoDescriptor(IoRole.INPUT, next(iter(in_cands)), in_len, mode))
    io_table.append(IoDescriptor(IoRole.OUTPUT, next(iter(out_cands)),
                                 len(output), IoMode.BY_ADDRESS))
    io_table = tuple(io_table)

    builder = _Builder(stack, graph, harness, trace, io_table)
    if harness.granularity is Granularity.PER_LAYER:
        recordings = builder.per_layer()
    else:
        recordings = [builder.monolithic()]
    return RecordResult(recordings, io_table, trials,
                        builder.skipped, builder.kept, builder.raw_dump_bytes)


# ---------------------------------------------------------------------------
# Recording assembly
# ---------------------------------------------------------------------------

def _by_address_inputs(io_table) -> list[IoDescriptor]:
    return [d for d in io_table
            if d.role is IoRole.INPUT and d.mode is IoMode.BY_ADDRESS]


def _dumped(r: _Region, addr_inputs) -> bool:
    """The dump rule. Job binaries are always dumped. Scratch is never
    dumped, nor a buffer never CPU-mapped: a GPU-internal buffer passes
    data between jobs, and loading it back would clobber replayed data
    flow. Nor a by-address input, which the replay's caller supplies."""
    if r.flags & _GPU_EXEC:
        return True
    if r.flags & _SCRATCH or not r.flags & _CPU_VISIBLE:
        return False
    return not any(r.gpu_va < d.gpu_va + d.len_bytes and d.gpu_va < r.gpu_va + r.page_len
                   for d in addr_inputs)


class _Builder:
    def __init__(self, stack, graph, harness, trace: _RunTrace, io_table):
        self.stack = stack
        self.graph = graph
        self.harness = harness
        self.trace = trace
        self.io_table = io_table
        self.sku = stack.dev.sku
        self.map_hash = stack.dev.reg_map.digest()
        self.skipped = 0
        self.kept = 0
        self.raw_dump_bytes = 0
        self.addr_inputs = _by_address_inputs(io_table)
        # snapshot bytes -> their DEFLATE payload: DEFLATE is deterministic,
        # so each distinct snapshot is deflated once for every recording
        self._payloads: dict[bytes, bytes] = {}

    def _header(self, label: str) -> RecordingHeader:
        return RecordingHeader(
            sku_id=self.sku.sku_id,
            register_map_hash=self.map_hash,
            created_unix=0,
            granularity=self.harness.granularity,
            workload_label=label[:64],
        )

    def _emit_dumps(self, regions, addr_inputs, dumps, last, raw, floor):
        """Returns LoadMemDump actions for the regions that ``_dumped``
        keeps and whose bytes differ from those last dumped at their VA
        (``last``, VA -> bytes), the first with the intervals ``raw`` and
        ``floor``; appends the MemDumps, each with its index in ``dumps``
        as id and the snapshot it deflated as ``raw``."""
        loads = []
        payloads = self._payloads
        for r in regions:
            content = r.content
            if not _dumped(r, addr_inputs) or last.get(r.gpu_va) == content:
                continue  # an unchanged snapshot is the very bytes object last dumped
            last[r.gpu_va] = content
            origin = (DumpOrigin.EXEC_PAGE if r.flags & _GPU_EXEC
                      else DumpOrigin.MAPPED_FALLBACK)
            payload = payloads.get(content)
            if payload is None:
                payload = payloads[content] = deflate(content)
            loads.append(LoadMemDump(raw, floor, len(dumps), r.gpu_va))
            dumps.append(_new_dump(len(dumps), r.gpu_va, len(content), payload, origin,
                                   content))
            raw = floor = 0
            self.raw_dump_bytes += len(content)
        return loads

    def _entry_actions(self, entry: _Entry, raw: int, floor: int):
        """The action of a non-kick entry, with the intervals ``raw`` and
        ``floor`` (the fields after them are positional)."""
        ev = entry.ev
        kind = ev.kind
        if kind == "write":
            return [_new_write(raw, floor, ev.reg, ev.value)]
        if kind == "read":
            if ev.state_class is StateClass.NONDET_READ:
                return [_new_read(raw, floor, ev.reg, 0, ActionClass.NONDET)]
            return [_new_read(raw, floor, ev.reg, ev.value, ActionClass.STATE)]
        if kind == "poll":
            return [_new_poll(raw, floor, ev.reg, ev.mask, ev.expect, ev.n_reads)]
        if kind == "wait_irq":
            return [_new_wait(raw, floor, ev.bits, entry.t1 - entry.t0)]
        if kind == "map":
            return [_new_map(raw, floor, ev.gpu_va, ev.len_bytes, ev.perm_bits)]
        if kind == "unmap":
            return [_new_unmap(raw, floor, ev.gpu_va, ev.len_bytes)]
        raise ValueError(f"unknown event kind {ev.kind}")

    def _build(self, entries, actions, dumps, last) -> None:
        """Appends the actions of ``entries`` to ``actions`` and their
        dumps to ``dumps``; ``last`` is as in ``_emit_dumps``."""
        prev_end = entries[0].t0 if entries else 0
        prev_idle = True
        for entry in entries:
            # the gap before the entry goes to its first action; it is a
            # skip iff the device was idle when the gap began (module doc)
            raw = max(0, entry.t0 - prev_end)
            floor = 0 if prev_idle else raw
            if entry.changed is None:
                new = self._entry_actions(entry, raw, floor)
            else:
                # every region a kick leaves out is as the kick before saw
                # it: at the run's first kick, every live region changed;
                # at a slice's first kick, the rest is what its prologue dumped
                new = self._emit_dumps(entry.changed, self.addr_inputs, dumps, last,
                                       raw, floor)
            if not new:
                continue  # fully filtered; its time folds into the next gap
            if floor:
                self.kept += 1
            else:
                self.skipped += 1
            actions.extend(new)
            prev_end, prev_idle = entry.t1, entry.idle

    def monolithic(self) -> Recording:
        actions: list[ReplayAction] = []
        dumps: list[MemDump] = []
        self._build(self.trace.entries, actions, dumps, {})
        return Recording(self._header(self.graph.label()), tuple(actions),
                         tuple(dumps), self.io_table)

    def per_layer(self) -> list[Recording]:
        marks = self.trace.layer_marks
        order = sorted(marks)
        # slice 0 owns everything from the run start (context init, input
        # buffer setup) up to the second layer's mark
        bounds = [0] + [marks[i] for i in order[1:]] + [len(self.trace.entries)]
        layer_out = self._layer_io()
        recs = []
        init_values = self._init_values()
        for k in order:
            actions: list[ReplayAction] = []
            dumps: list[MemDump] = []
            last: dict[int, bytes] = {}
            if k:
                self._prologue(k, layer_out[k], init_values, actions, dumps, last)
            self._build(self.trace.entries[bounds[k]:bounds[k + 1]], actions, dumps, last)
            label = f"{self.graph.label()[:56]}[L{k}]"
            recs.append(Recording(self._header(label), tuple(actions),
                                  tuple(dumps), layer_out[k]))
        return recs

    def _init_values(self) -> dict[str, int]:
        vals = {}
        for e in self.trace.entries:
            if e.ev.kind == "write" and e.ev.reg in ("MMU_CONFIG", "GPU_IRQ_MASK"):
                vals.setdefault(e.ev.reg, e.ev.value)
        return vals

    def _layer_io(self) -> dict[int, tuple[IoDescriptor, ...]]:
        """Per-slice I/O: the workload endpoints come from discovery, the
        stitching points between layers from the stack's allocations in
        the final run (the driver legitimately sees every allocation call)."""
        find = self.stack.find_alloc
        n = len(self.graph.layers)
        out: dict[int, tuple[IoDescriptor, ...]] = {}
        workload_in = [d for d in self.io_table if d.role is IoRole.INPUT]
        workload_out = [d for d in self.io_table if d.role is IoRole.OUTPUT]
        for k in range(n):
            table: list[IoDescriptor] = []
            if k == 0:
                table.extend(workload_in)
            else:
                prev = find(f"L{k - 1}.out")
                table.append(IoDescriptor(IoRole.INPUT, prev.gpu_va,
                                          prev.len_bytes, IoMode.BY_ADDRESS))
            if k == n - 1:
                table.extend(workload_out)
            else:
                cur = find(f"L{k}.out")
                table.append(IoDescriptor(IoRole.OUTPUT, cur.gpu_va,
                                          cur.len_bytes, IoMode.BY_ADDRESS))
            out[k] = tuple(table)
        return out

    def _prologue(self, k: int, slice_io, init_values, actions, dumps, last) -> None:
        """Appends slice ``k``'s set-up: the init writes, a map of each
        region live at its layer's start and the dumps of those regions."""
        regions = self.trace.layer_regions[k]
        actions += [
            RegRead(reg_name="GPU_ID", expect_value=self.sku.gpu_id_value,
                    state_class=ActionClass.STATE),
            RegWrite(reg_name="MMU_CONFIG",
                     value=init_values.get("MMU_CONFIG", self.sku.expected_mmu_config)),
            RegWrite(reg_name="GPU_IRQ_MASK",
                     value=init_values.get("GPU_IRQ_MASK", dv.IRQ_ALL)),
        ]
        for r in regions:
            actions.append(MapGpuMem(gpu_va=r.gpu_va, len_bytes=r.len_bytes,
                                     perm_flags_encoded=r.perm_bits))
        actions += self._emit_dumps(regions, _by_address_inputs(slice_io),
                                    dumps, last, 0, 0)
