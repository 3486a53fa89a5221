"""Static verification of a recording before anything touches a device.

Pure function over the decoded structure. Rules:

  R1  register name absent from the map
  R2  access direction violated (write to read-only, read of write-only)
  R3  peak simultaneously-mapped GPU memory exceeds the budget
  R4  LoadMemDump or I/O descriptor targets a range not mapped at that
      point in action order (or a dump id that does not exist, or a dump
      whose own gpu_va differs from its LoadMemDump's)
  R5  unmap of a range that was never mapped
  R6  interrupt wait with no plausible cause (JOB_DONE with no pending
      kick, RESET_DONE with no prior soft reset)
  R7  a mapped range (page-rounded) overlaps another range of the
      recording with a different base, at any two points in action order:
      the replayer lays out every range at once, so one would re-point
      the other's page table entries
  R8  a mapped range whose base is not page-aligned
  R9  a poll allowed more reads than a driver's poll makes
      (``device.POLL_MAX_READS``): replay's poll budget grows with it

A range is as long as the largest MapGpuMem of its base; R4 checks each
LoadMemDump against the map live at it, and the first dump of its id,
the one replay loads. The report's ``ranges`` are the replayer's layout,
its ``dumps`` (dump id -> that first dump) are what replay loads, and its
``loads`` are the LoadMemDumps that passed R4, each with its dump.

Violations are data, not failures; the report's ``ok`` is just
"no violations".
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from dataclasses import dataclass, field

from . import device as dv
from .actions import (LoadMemDump, MapGpuMem, MemDump, Recording, RegRead,
                      RegReadWait, RegWrite, UnmapGpuMem, WaitIrq)
from .device import Access, RegisterMap

DEFAULT_MEM_BUDGET = dv.MEM_BYTES


@dataclass(frozen=True)
class Violation:
    action_index: int  # -1 for recording-level findings (io table, budget)
    rule: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    peak_gpu_mem_bytes: int
    violations: tuple[Violation, ...]
    # Not part of the report's value, text or JSON:
    # base -> (pages of its largest map, index of its first MapGpuMem), in
    # first-map order
    ranges: dict[int, tuple[int, int]] = field(default_factory=dict, compare=False,
                                               repr=False)
    # dump_id -> the first dump of that id
    dumps: dict[int, MemDump] = field(default_factory=dict, compare=False, repr=False)
    # (action index, dump) of each LoadMemDump that passed R4, in action order
    loads: list[tuple[int, MemDump]] = field(default_factory=list, compare=False,
                                             repr=False)

    def to_text(self) -> str:
        lines = [f"peak_gpu_mem_bytes {self.peak_gpu_mem_bytes}"]
        for v in self.violations:
            lines.append(f"{v.rule} action {v.action_index}: {v.message}")
        lines.append(f"{len(self.violations)} violations")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "peak_gpu_mem_bytes": self.peak_gpu_mem_bytes,
            "violations": [
                {"action_index": v.action_index, "rule": v.rule,
                 "message": v.message}
                for v in self.violations
            ],
        }, indent=2)


def _covered(bases: list[int], spans: dict[int, int], va: int, n: int) -> bool:
    """Whole [va, va+n) inside the range (``spans``: base -> pages,
    page-rounded) with the nearest of the sorted ``bases`` at or below
    ``va``. Where ranges are disjoint (R7) no other range can hold it."""
    i = bisect_right(bases, va) - 1
    return i >= 0 and va + n <= bases[i] + spans[bases[i]] * dv.PAGE_SIZE


def _overlaps(bases: list[int], spans: dict[int, int],
              first_map: dict[int, int]) -> list[Violation]:
    """R7 over ``spans`` (base -> pages) in the order of the sorted
    ``bases``: a range overlaps an earlier base's range iff it starts before
    the furthest end so far."""
    found = []
    reach, reach_base = 0, None
    for base in bases:
        if base < reach:
            found.append(Violation(
                max(first_map[base], first_map[reach_base]), "R7",
                f"range {base:#x}+{spans[base] * dv.PAGE_SIZE:#x} overlaps range "
                f"{reach_base:#x}+{spans[reach_base] * dv.PAGE_SIZE:#x}"))
        end = base + spans[base] * dv.PAGE_SIZE
        if end > reach:
            reach, reach_base = end, base
    return found


def verify(rec: Recording, reg_map: RegisterMap | None = None,
           mem_budget_bytes: int = DEFAULT_MEM_BUDGET) -> VerificationReport:
    reg_map = reg_map or dv.DEFAULT_REGISTER_MAP
    by_name = reg_map.by_name
    violations: list[Violation] = []
    flag = violations.append
    dump_ids = {d.dump_id: d for d in reversed(rec.dumps)}  # the first of each id
    loads: list[tuple[int, MemDump]] = []

    live: dict[int, int] = {}
    live_bases: list[int] = []  # the keys of ``live``, sorted
    ever_mapped: dict[int, int] = {}  # base -> pages of its largest map
    first_map: dict[int, int] = {}  # base -> index of its first MapGpuMem
    current = peak = pending_kicks = pending_resets = 0

    # read once: each read of a member through its enum class is a slow
    # attribute lookup
    ro, wo = Access.RO, Access.WO

    # One branch per action type; replay refuses any other type.
    for i, a in enumerate(rec.actions):
        t = type(a)
        if t is RegWrite:
            reg = by_name(a.reg_name)
            if reg is None:
                flag(Violation(i, "R1", f"register {a.reg_name!r} not in map"))
            elif reg.access is ro:
                flag(Violation(i, "R2", f"write to read-only {a.reg_name}"))
            elif a.reg_name == "JOB_START" and a.value & 1:
                pending_kicks += 1
            elif a.reg_name == "GPU_CMD" and a.value == dv.CMD_SOFT_RESET:
                pending_resets += 1
        elif t is RegRead or t is RegReadWait:
            reg = by_name(a.reg_name)
            if reg is None:
                flag(Violation(i, "R1", f"register {a.reg_name!r} not in map"))
            elif reg.access is wo:
                flag(Violation(i, "R2", f"read of write-only {a.reg_name}"))
            if t is RegReadWait and a.max_polls > dv.POLL_MAX_READS:
                flag(Violation(i, "R9", f"poll of up to {a.max_polls} reads exceeds "
                                        f"{dv.POLL_MAX_READS}"))
        elif t is MapGpuMem:
            va = a.gpu_va
            if va & dv.PAGE_MASK:
                flag(Violation(i, "R8", f"range {va:#x} is not page-aligned"))
            pages = max(1, -(-a.len_bytes // dv.PAGE_SIZE))
            if va not in live:
                insort(live_bases, va)
            live[va] = pages
            if pages > ever_mapped.get(va, 0):
                ever_mapped[va] = pages
            first_map.setdefault(va, i)
            current += pages * dv.PAGE_SIZE
            peak = max(peak, current)
            if current > mem_budget_bytes:
                flag(Violation(i, "R3", f"mapped {current} bytes exceeds budget {mem_budget_bytes}"))
        elif t is LoadMemDump:
            d = dump_ids.get(a.dump_id)
            if d is None:
                flag(Violation(i, "R4", f"references missing dump {a.dump_id}"))
            elif d.gpu_va != a.gpu_va:
                flag(Violation(i, "R4", f"dump {a.dump_id} is for {d.gpu_va:#x}, "
                                        f"loaded at {a.gpu_va:#x}"))
            else:
                # _covered, inline: this runs once per dump load
                va = a.gpu_va
                k = bisect_right(live_bases, va) - 1
                if k >= 0 and (va + d.raw_len
                               <= live_bases[k] + live[live_bases[k]] * dv.PAGE_SIZE):
                    loads.append((i, d))
                else:
                    flag(Violation(i, "R4", f"dump load at {va:#x}+{d.raw_len:#x} outside mapping"))
        elif t is UnmapGpuMem:
            pages = live.pop(a.gpu_va, None)
            if pages is None:
                flag(Violation(i, "R5", f"unmap of never-mapped {a.gpu_va:#x}"))
            else:
                live_bases.pop(bisect_right(live_bases, a.gpu_va) - 1)
                current -= pages * dv.PAGE_SIZE
        elif t is WaitIrq:
            if a.expect_rawstat & dv.IRQ_JOB_DONE:
                if pending_kicks <= 0:
                    flag(Violation(i, "R6", "JOB_DONE wait without a pending job kick"))
                else:
                    pending_kicks -= 1
            if a.expect_rawstat & dv.IRQ_RESET_DONE:
                if pending_resets <= 0:
                    flag(Violation(i, "R6", "RESET_DONE wait without a prior soft reset"))
                else:
                    pending_resets -= 1

    ever_bases = sorted(ever_mapped)
    violations.extend(_overlaps(ever_bases, ever_mapped, first_map))
    for io in rec.io_table:
        if not _covered(ever_bases, ever_mapped, io.gpu_va, io.len_bytes):
            violations.append(Violation(
                -1, "R4",
                f"{io.role.name} region {io.gpu_va:#x}+{io.len_bytes:#x} "
                "outside any mapped range"))

    return VerificationReport(ok=not violations, peak_gpu_mem_bytes=peak,
                              violations=tuple(violations),
                              ranges={va: (pages, first_map[va])
                                      for va, pages in ever_mapped.items()},
                              dumps=dump_ids, loads=loads)
