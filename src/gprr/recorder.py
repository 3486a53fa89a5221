"""Recorder: turns one instrumented stack run into a replayable Recording.

Attaches to the refstack driver's accessor stream and
  * summarizes register traffic into replay actions (poll loops collapse
    into a single RegReadWait),
  * dumps GPU-mapped memory right before each job kick, filtered by page
    role (executable pages always kept, internal scratch dropped,
    by-address input regions never captured) and deduplicated against
    the bytes last dumped at the same address,
  * classifies the gap before each action as skippable iff the GPU was
    provably idle throughout it,
  * discovers input/output GPU addresses by injecting high-entropy magic
    input and matching it in the dumps, re-running with fresh magic until
    output matches are unambiguous.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from . import device as dv
from .actions import (ActionClass, DumpOrigin, Granularity, IoDescriptor,
                      IoMode, IoRole, LoadMemDump, MapGpuMem, MemDump,
                      Recording, RecordingHeader, RegRead, RegReadWait,
                      RegWrite, ReplayAction, UnmapGpuMem, WaitIrq)
from .device import StateClass
from .recfmt import deflate
from .refstack import (Allocation, AllocFlags, GpuStack, PortEvent,
                       StackListener, WorkloadGraph)

DUMP_BYTE_NS = 0.2  # recording overhead charged while dumping (GPU idle)


class DiscoveryError(Exception):
    pass


class RecordError(Exception):
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
    created_unix: int = 0
    include_scratch: bool = False  # turn the scratch/internal dump filter off
    pre_scan_hook: object = None  # test hook: callable(stack) before the final scan

    def mode_for(self, index: int) -> IoMode:
        return self.input_modes.get(index, IoMode.BY_ADDRESS)


_HARNESS_FORMS = {
    "input": "input <idx> by_value|by_address|both",
    "magic_seed": "magic_seed <n>",
    "trials": "trials <n>",
    "granularity": "granularity monolithic|per_layer",
}


def _number(word: str) -> int:
    try:
        return int(word, 0)
    except ValueError:
        raise ValueError(f"{word!r} is not a number") from None


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
        try:
            form = _HARNESS_FORMS.get(key)
            if form is None:
                raise ValueError(f"unknown directive {key!r}")
            if len(args) != form.count(" "):
                raise ValueError(f"want {form!r}")
            if key == "input":
                h.input_modes[_number(args[0])] = _member(args[1], IoMode)
            elif key == "magic_seed":
                h.magic_seed = _number(args[0])
            elif key == "trials":
                h.max_trials = _number(args[0])
                if h.max_trials < 1:
                    raise ValueError("trials must be at least 1")
            else:
                h.granularity = _member(args[0], Granularity)
        except ValueError as e:
            raise ValueError(f"harness line {lineno}: {raw!r}: {e}") from None
    return h


# ---------------------------------------------------------------------------
# Interval classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalDecision:
    skip: bool
    floor_ns: int  # 0 when skipped, the observed gap otherwise


def classify_interval(t0: int, t1: int, was_idle) -> IntervalDecision:
    """SKIP iff the device was provably idle for the entire [t0, t1];
    ``was_idle`` is a predicate like Device.was_idle_between."""
    gap = max(0, t1 - t0)
    if gap == 0 or was_idle(t0, t1):
        return IntervalDecision(True, 0)
    return IntervalDecision(False, gap)


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
    # pre_kick entries: every live region, and the ones mapped or rewritten
    # since the previous kick, both in VA order
    kick_regions: list[_Region] | None = None
    changed: list[_Region] | None = None


class _RunTrace(StackListener):
    """Listener that captures everything one build pass needs. A snapshot
    re-reads only the regions on pages the device logged as written."""

    def __init__(self, stack: GpuStack, charge_dump_time: bool = True):
        self.stack = stack
        self.charge_dump_time = charge_dump_time
        self.entries: list[_Entry] = []
        self.allocations: list[Allocation] = []
        self.layer_marks: dict[int, int] = {}        # layer -> first entry index
        self.layer_regions: dict[int, list[_Region]] = {}
        # the live regions' latest snapshots in VA order, their VAs alongside
        self._vas: list[int] = []
        self._regions: list[_Region] = []
        self._page_va: dict[int, int] = {}           # physical page -> live VA
        self._unread: set[int] = set()               # VAs mapped, not yet read
        self._changed: dict[int, _Region] = {}       # mapped or rewritten since the last kick
        self._live_bytes = 0
        self.output: bytes | None = None
        self.t_start = stack.dev.vclock_ns

    def on_run_start(self, graph, input_len):
        self.t_start = self.stack.dev.vclock_ns

    def on_alloc(self, alloc):
        self.allocations.append(alloc)

    def on_layer_start(self, index):
        if index not in self.layer_marks:
            self.layer_marks[index] = len(self.entries)
            self._refresh()
            self.layer_regions[index] = list(self._regions)

    def on_run_end(self, output):
        self.output = output

    def on_port_event(self, ev: PortEvent):
        entry = _Entry(ev, ev.t0, ev.t1)
        va = ev.gpu_va
        if ev.kind == "map":
            page_len = max(1, -(-ev.len_bytes // dv.PAGE_SIZE)) * dv.PAGE_SIZE
            pages = dv.span_pages(va, page_len, self.stack.driver.va_to_pa)
            i = bisect_left(self._vas, va)
            self._vas.insert(i, va)
            self._regions.insert(i, _Region(va, ev.len_bytes, page_len, ev.perm_bits,
                                            ev.flags.value, pages))
            self._page_va.update(dict.fromkeys(pages, va))
            self._unread.add(va)
            self._live_bytes += ev.len_bytes
        elif ev.kind == "unmap":
            i = bisect_left(self._vas, va)
            del self._vas[i]
            r = self._regions.pop(i)
            for p in r.pages:
                del self._page_va[p]
            self._unread.discard(va)
            self._changed.pop(va, None)
            self._live_bytes -= r.len_bytes
        elif ev.kind == "pre_kick":
            self._refresh()
            entry.kick_regions = list(self._regions)
            entry.changed = [self._changed[va] for va in sorted(self._changed)]
            self._changed = {}
            if self.charge_dump_time:
                self.stack.sleep(round(self._live_bytes * DUMP_BYTE_NS))
                entry.t1 = self.stack.dev.vclock_ns
        self.entries.append(entry)

    def _refresh(self) -> None:
        """Re-read the regions never read and those on pages written since
        the last refresh. A region whose bytes did not change keeps its
        snapshot."""
        page_va = self._page_va
        stale = {page_va[p] for p in self.stack.dev.take_dirty_pages() if p in page_va}
        stale |= self._unread
        self._unread = set()
        for va in stale:
            i = bisect_left(self._vas, va)
            r = self._regions[i]
            content = self.stack.mem_read_va(va, r.page_len)
            if content != r.content:
                r = self._regions[i] = replace(r, content=content)
                self._changed[va] = r

    def final_cpu_visible(self) -> list[_Region]:
        return [replace(r, content=self.stack.mem_read_va(r.gpu_va, r.page_len))
                for r in self._regions if r.flags & _CPU_VISIBLE]


# ---------------------------------------------------------------------------
# I/O discovery
# ---------------------------------------------------------------------------

def magic_bytes(seed: int, trial: int, n: int) -> bytes:
    return random.Random(seed * 1000003 + trial).randbytes(n)


@dataclass
class TrialInfo:
    trial: int
    input_candidates: dict[int, set[int]]
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
    input_indices = [0]  # this stack packs all operands into one buffer
    unknown = sorted(harness.input_modes.keys() - set(input_indices))
    if unknown:
        raise HarnessError(f"harness names input {unknown[0]}, but the workload "
                           f"packs all its operands into input 0")

    in_cands: dict[int, set[int]] = {}
    in_cands_dumps: dict[int, set[int]] = {}
    out_cands: set[int] | None = None
    trials: list[TrialInfo] = []
    trace = None

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

        run_in: dict[int, set[int]] = {}
        run_in_dumps: dict[int, set[int]] = {}
        for idx in input_indices:
            dump_hits = _scan_regions(kick_cpuvis, magic)
            all_hits = dump_hits | _scan_regions(final_regions, magic)
            if not all_hits:
                raise DiscoveryError(
                    f"input {idx}: magic never reached GPU memory intact")
            run_in[idx] = all_hits
            run_in_dumps[idx] = dump_hits
        for idx in input_indices:
            in_cands[idx] = (in_cands.get(idx) or run_in[idx]) & run_in[idx]
            in_cands_dumps[idx] = ((in_cands_dumps.get(idx) or run_in_dumps[idx])
                                   & run_in_dumps[idx])
            # structural aliases (e.g. pure copies) show up only after the
            # data flowed; matches inside the dumps take precedence
            if len(in_cands[idx]) > 1 and len(in_cands_dumps[idx]) == 1:
                in_cands[idx] = set(in_cands_dumps[idx])

        claimed = [c for idx in input_indices for c in in_cands[idx]]
        run_out = {va for va in _scan_regions(final_regions, output)
                   if not any(c < va + len(output) and va < c + in_len
                              for c in claimed)}
        if not run_out:
            raise DiscoveryError("output bytes not found in GPU memory")
        out_cands = run_out if out_cands is None else (out_cands & run_out)

        trials.append(TrialInfo(trial, {i: set(s) for i, s in in_cands.items()},
                                set(out_cands)))
        if all(len(s) == 1 for s in in_cands.values()) and len(out_cands) == 1:
            break
    else:
        which = [f"input {i} ~ {sorted(map(hex, s))}"
                 for i, s in in_cands.items() if len(s) != 1]
        if out_cands is None or len(out_cands) != 1:
            shown = sorted(map(hex, out_cands or []))[:8]
            which.append(f"output ~ {shown}")
        raise DiscoveryError(
            f"ambiguous after {harness.max_trials} trials: {'; '.join(which)}")

    out_va = next(iter(out_cands))
    io_table = []
    for idx in input_indices:
        mode = harness.mode_for(idx)
        if mode in (IoMode.BY_ADDRESS, IoMode.BOTH):
            io_table.append(IoDescriptor(IoRole.INPUT, next(iter(in_cands[idx])),
                                         in_len, mode))
    io_table.append(IoDescriptor(IoRole.OUTPUT, out_va,
                                 len(trace.output), IoMode.BY_ADDRESS))
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
        self.include_scratch = harness.include_scratch
        self.addr_only_inputs = [
            d for d in io_table
            if d.role is IoRole.INPUT and d.mode is IoMode.BY_ADDRESS]

    def _header(self, label: str) -> RecordingHeader:
        return RecordingHeader(
            sku_id=self.sku.sku_id,
            register_map_hash=self.map_hash,
            created_unix=self.harness.created_unix,
            granularity=self.harness.granularity,
            workload_label=label[:64],
        )

    def _skip_region(self, r: _Region) -> bool:
        if r.flags & _GPU_EXEC:
            return False  # job binaries, always captured
        if r.flags & _SCRATCH and not self.include_scratch:
            return True
        if not r.flags & _CPU_VISIBLE and not self.include_scratch:
            # never CPU-mapped: a GPU-internal buffer passing data between
            # jobs; loading it back would clobber replayed data flow
            return True
        for d in self.addr_only_inputs:
            if r.gpu_va < d.gpu_va + d.len_bytes and d.gpu_va < r.gpu_va + r.page_len:
                return True
        return False

    def _emit_dumps(self, regions, dumps, next_id, last, raw, floor):
        """Returns LoadMemDump actions for regions that survive filtering
        and differ from the bytes last dumped at their VA (``last``, VA ->
        bytes), the first with the intervals ``raw`` and ``floor``;
        appends the MemDump payloads."""
        loads = []
        for r in regions:
            if self._skip_region(r) or last.get(r.gpu_va) == r.content:
                continue  # an unchanged snapshot is the very bytes object last dumped
            last[r.gpu_va] = r.content
            origin = (DumpOrigin.EXEC_PAGE if r.flags & _GPU_EXEC
                      else DumpOrigin.MAPPED_FALLBACK)
            dumps.append(MemDump(next_id[0], r.gpu_va, len(r.content),
                                 deflate(r.content), origin))
            loads.append(LoadMemDump(raw, floor, next_id[0], r.gpu_va))
            raw = floor = 0
            self.raw_dump_bytes += len(r.content)
            next_id[0] += 1
        return loads

    def _entry_actions(self, entry: _Entry, raw: int, floor: int):
        """The action of a non-kick entry, with the intervals ``raw`` and
        ``floor`` (the fields after them are positional)."""
        ev = entry.ev
        if ev.kind == "write":
            return [RegWrite(raw, floor, ev.reg, ev.value)]
        if ev.kind == "read":
            if ev.state_class is StateClass.NONDET_READ:
                return [RegRead(raw, floor, ev.reg, 0, ActionClass.NONDET)]
            return [RegRead(raw, floor, ev.reg, ev.value, ActionClass.STATE)]
        if ev.kind == "poll":
            return [RegReadWait(raw, floor, ev.reg, ev.mask, ev.expect, ev.n_reads)]
        if ev.kind == "wait_irq":
            return [WaitIrq(raw, floor, ev.bits, entry.t1 - entry.t0)]
        if ev.kind == "map":
            return [MapGpuMem(raw, floor, ev.gpu_va, ev.len_bytes, ev.perm_bits)]
        if ev.kind == "unmap":
            return [UnmapGpuMem(raw, floor, ev.gpu_va, ev.len_bytes)]
        raise RecordError(f"unknown event kind {ev.kind}")

    def _build(self, entries, prologue=(), prologue_dumps=(),
               dumps=None, next_id=None, last=None):
        dumps = [] if dumps is None else dumps
        next_id = [0] if next_id is None else next_id
        last = {} if last is None else last
        actions: list[ReplayAction] = list(prologue)
        dumps.extend(prologue_dumps)
        prev_end = entries[0].t0 if entries else 0
        dev = self.stack.dev
        kicked = False
        for entry in entries:
            # the gap before the entry goes to its first action
            decision = classify_interval(prev_end, entry.t0, dev.was_idle_between)
            raw = max(0, entry.t0 - prev_end)
            if entry.kick_regions is None:
                new = self._entry_actions(entry, raw, decision.floor_ns)
            else:
                # a build's first kick checks every live region (a per-layer
                # slice starts mid-run); a later one only those changed
                # since the kick before: every other is as it was then
                new = self._emit_dumps(entry.changed if kicked else entry.kick_regions,
                                       dumps, next_id, last, raw, decision.floor_ns)
                kicked = True
            if not new:
                continue  # fully filtered; its time folds into the next gap
            if decision.skip:
                self.skipped += 1
            else:
                self.kept += 1
            actions.extend(new)
            prev_end = entry.t1
        return actions, dumps

    def monolithic(self) -> Recording:
        actions, dumps = self._build(self.trace.entries)
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
            start, end = bounds[k], bounds[k + 1]
            entries = self.trace.entries[start:end]
            dumps: list[MemDump] = []
            next_id = [0]
            last: dict[int, bytes] = {}
            if k == 0:
                prologue, prologue_dumps = (), ()
            else:
                prologue, prologue_dumps = self._prologue(
                    k, layer_out[k], init_values, next_id, last)
            actions, dumps = self._build(entries, prologue, prologue_dumps,
                                         dumps, next_id, last)
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
        stitching points between layers from the driver's allocation
        records (the driver legitimately sees every allocation call)."""
        allocs = {a.tag: a for a in self.trace.allocations}
        n = len(self.graph.layers)
        out: dict[int, tuple[IoDescriptor, ...]] = {}
        workload_in = [d for d in self.io_table if d.role is IoRole.INPUT]
        workload_out = [d for d in self.io_table if d.role is IoRole.OUTPUT]
        for k in range(n):
            table: list[IoDescriptor] = []
            if k == 0:
                table.extend(workload_in)
            else:
                prev = allocs[f"L{k - 1}.out"]
                table.append(IoDescriptor(IoRole.INPUT, prev.gpu_va,
                                          prev.len_bytes, IoMode.BY_ADDRESS))
            if k == n - 1:
                table.extend(workload_out)
            else:
                cur = allocs[f"L{k}.out"]
                table.append(IoDescriptor(IoRole.OUTPUT, cur.gpu_va,
                                          cur.len_bytes, IoMode.BY_ADDRESS))
            out[k] = tuple(table)
        return out

    def _prologue(self, k: int, slice_io, init_values, next_id, last):
        regions = self.trace.layer_regions[k]
        actions: list[ReplayAction] = [
            RegRead(reg_name="GPU_ID", expect_value=self.sku.gpu_id_value,
                    state_class=ActionClass.STATE),
            RegWrite(reg_name="MMU_CONFIG",
                     value=init_values.get("MMU_CONFIG", self.sku.expected_mmu_config)),
            RegWrite(reg_name="GPU_IRQ_MASK",
                     value=init_values.get("GPU_IRQ_MASK", dv.IRQ_ALL)),
        ]
        addr_inputs = [d for d in slice_io
                       if d.role is IoRole.INPUT and d.mode is IoMode.BY_ADDRESS]
        dumps: list[MemDump] = []
        for r in regions:
            actions.append(MapGpuMem(gpu_va=r.gpu_va, len_bytes=r.len_bytes,
                                     perm_flags_encoded=r.perm_bits))
        saved = self.addr_only_inputs
        self.addr_only_inputs = addr_inputs
        try:
            actions.extend(self._emit_dumps(regions, dumps, next_id, last, 0, 0))
        finally:
            self.addr_only_inputs = saved
        return actions, dumps
