"""Recording IR: the action list, memory dumps and I/O descriptor table.

Actions name registers rather than addresses; the replayer resolves names
against its own register map. Every action carries two interval fields:
``raw_interval_ns`` is the gap observed at record time between the
previous action completing and this one starting, and ``min_interval_ns``
is the pacing floor after idle-skip classification: zero when the GPU was
idle for the whole gap, so a replayer may fast-forward, else the gap. Only
a driver access starts device work, so within a gap the device can only
go from busy to idle, and the recorder reads the gap as idle iff the
device was idle as the previous action ended.

The action types and MemDump are frozen dataclasses with slots: values
that hash and compare by field, keep no ``__dict__``, and read their
attributes as fast as a plain object does. The decoder, and the recorder
for its dumps, build them through their slots (``slot_factory``), not
through ``__init__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Callable


class ActionClass(enum.Enum):
    STATE = "state"     # value participates in divergence checking
    NONDET = "nondet"   # value read and discarded at replay


class IoRole(enum.Enum):
    INPUT = 0
    OUTPUT = 1


class IoMode(enum.Enum):
    BY_VALUE = 0    # captured in dumps; app supplies nothing at replay
    BY_ADDRESS = 1  # app must supply bytes at replay
    BOTH = 2        # captured, optionally overridable


class DumpOrigin(enum.Enum):
    EXEC_PAGE = 0
    MAPPED_FALLBACK = 1


class Granularity(enum.Enum):
    MONOLITHIC = 0
    PER_LAYER = 1


@dataclass(frozen=True)
class _Action:
    # no slots of its own: each slotted action declares these two fields
    # itself, where a slotted base would have Python 3.10 declare them twice
    __slots__ = ()
    raw_interval_ns: int = 0
    min_interval_ns: int = 0


@dataclass(frozen=True, slots=True)
class RegWrite(_Action):
    reg_name: str = ""
    value: int = 0


@dataclass(frozen=True, slots=True)
class RegRead(_Action):
    reg_name: str = ""
    expect_value: int = 0  # meaningful only for STATE reads
    state_class: ActionClass = ActionClass.STATE

    @property
    def nondet(self) -> bool:
        return self.state_class is ActionClass.NONDET


@dataclass(frozen=True, slots=True)
class RegReadWait(_Action):
    reg_name: str = ""
    mask: int = 0
    expect_value: int = 0
    max_polls: int = 1


@dataclass(frozen=True, slots=True)
class WaitIrq(_Action):
    expect_rawstat: int = 0
    residency_ns: int = 0  # how long the wait took at record time


@dataclass(frozen=True, slots=True)
class MapGpuMem(_Action):
    gpu_va: int = 0
    len_bytes: int = 0
    perm_flags_encoded: int = 0  # in the recording SKU's PTE bit layout


@dataclass(frozen=True, slots=True)
class UnmapGpuMem(_Action):
    gpu_va: int = 0
    len_bytes: int = 0


@dataclass(frozen=True, slots=True)
class LoadMemDump(_Action):
    dump_id: int = 0
    gpu_va: int = 0


ReplayAction = (RegWrite | RegRead | RegReadWait | WaitIrq
                | MapGpuMem | UnmapGpuMem | LoadMemDump)


@dataclass(frozen=True, slots=True)
class MemDump:
    dump_id: int
    gpu_va: int
    raw_len: int
    payload: bytes  # DEFLATE-compressed
    origin_filter: DumpOrigin
    # The payload inflated, as the recorder deflated it or as the decoder
    # that checked it kept it; None otherwise, and a reader inflates the
    # payload itself. Not part of the value: equality, hashing, repr and
    # encoding ignore it, and dataclasses.replace drops it.
    raw: bytes | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class IoDescriptor:
    role: IoRole
    gpu_va: int
    len_bytes: int
    mode: IoMode


@dataclass(frozen=True)
class RecordingHeader:
    sku_id: int
    register_map_hash: bytes
    created_unix: int
    granularity: Granularity
    workload_label: str

    def __post_init__(self):
        if len(self.register_map_hash) != 32:
            raise ValueError("register_map_hash must be 32 bytes")
        if len(self.workload_label.encode()) > 64:
            raise ValueError("workload label longer than 64 bytes")


@dataclass(frozen=True)
class Recording:
    """One replayable unit: header, ordered actions, dumps, I/O table."""

    header: RecordingHeader
    actions: tuple[ReplayAction, ...]
    dumps: tuple[MemDump, ...]
    io_table: tuple[IoDescriptor, ...]

    def inputs(self) -> list[IoDescriptor]:
        return [d for d in self.io_table if d.role is IoRole.INPUT]

    def outputs(self) -> list[IoDescriptor]:
        return [d for d in self.io_table if d.role is IoRole.OUTPUT]

    def job_count(self) -> int:
        return sum(1 for a in self.actions
                   if isinstance(a, RegWrite) and a.reg_name == "JOB_START")


# Wire byte of RegRead.state_class: its index here.
_READ_CLASSES = (ActionClass.STATE, ActionClass.NONDET)


def slot_factory(cls: type) -> Callable[..., Any]:
    """A function that makes a ``cls`` from all its field values, in field
    order, without ``__init__``: it stores each value straight into its
    slot. For a decoder, whose values need no default or conversion.

    The names come from ``dataclasses.fields``, and each slot from the
    class itself, whose own descriptors are the ones it reads.
    """
    names = [f.name for f in fields(cls)]
    env: dict[str, Any] = {"new": object.__new__, "cls": cls}
    env.update((f"set_{n}", getattr(cls, n).__set__) for n in names)
    exec(f"def build({', '.join(names)}):\n    obj = new(cls)\n"
         + "".join(f"    set_{n}(obj, {n})\n" for n in names)
         + "    return obj\n", env)
    return env["build"]


_new_reg_read = slot_factory(RegRead)


def _reg_read(raw: int, floor: int, name: str, expect: int, cls: int) -> RegRead:
    if cls >= len(_READ_CLASSES):
        raise ValueError(f"bad read class {cls}")
    return _new_reg_read(raw, floor, name, expect, _READ_CLASSES[cls])


@dataclass(frozen=True)
class ActionSchema:
    """One action type, defined once for the codec, ``gprr inspect`` and
    canonical_actions.

    On the wire an action is its ``tag`` byte and the two u64 interval
    fields, then the str16 register name when ``named``, then the
    attributes in ``fields`` packed with the little-endian struct codes
    in ``fmt``. ``build``, set where a field needs converting, makes the
    action from the decoded values in wire order and raises ValueError
    for an out-of-range final byte; the decoder builds any other type
    with its ``slot_factory``.
    """

    cls: type
    tag: int
    named: bool
    fields: tuple[str, ...]
    fmt: str
    canon: Callable[[Any], tuple]  # the projection canonical_actions keeps
    text: Callable[[Any], str]     # the ``gprr inspect`` listing
    build: Callable[..., Any] | None = None


ACTION_SCHEMAS = (
    ActionSchema(RegWrite, 1, True, ("value",), "I",
                 canon=lambda a: ("w", a.reg_name, a.value),
                 text=lambda a: f"write   {a.reg_name} <- {a.value:#x}"),
    ActionSchema(RegRead, 2, True, ("expect_value", "nondet"), "IB",
                 canon=lambda a: (("r?", a.reg_name) if a.nondet
                                  else ("r", a.reg_name, a.expect_value)),
                 text=lambda a: (f"read    {a.reg_name} (nondet)" if a.nondet
                                 else f"read    {a.reg_name} expect {a.expect_value:#x}"),
                 build=_reg_read),
    ActionSchema(RegReadWait, 3, True, ("mask", "expect_value", "max_polls"), "III",
                 canon=lambda a: ("rw", a.reg_name, a.mask, a.expect_value),
                 text=lambda a: (f"poll    {a.reg_name} mask {a.mask:#x} until "
                                 f"{a.expect_value:#x} (<= {a.max_polls} reads)")),
    ActionSchema(WaitIrq, 4, False, ("expect_rawstat", "residency_ns"), "IQ",
                 canon=lambda a: ("irq", a.expect_rawstat),
                 text=lambda a: (f"waitirq rawstat {a.expect_rawstat:#x} "
                                 f"(~{a.residency_ns} ns)")),
    ActionSchema(MapGpuMem, 5, False, ("gpu_va", "len_bytes", "perm_flags_encoded"), "IIB",
                 canon=lambda a: ("map", a.gpu_va, a.len_bytes, a.perm_flags_encoded),
                 text=lambda a: (f"map     {a.gpu_va:#010x}+{a.len_bytes:#x} "
                                 f"perms {a.perm_flags_encoded:#06b}")),
    ActionSchema(UnmapGpuMem, 6, False, ("gpu_va", "len_bytes"), "II",
                 canon=lambda a: ("unmap", a.gpu_va, a.len_bytes),
                 text=lambda a: f"unmap   {a.gpu_va:#010x}+{a.len_bytes:#x}"),
    ActionSchema(LoadMemDump, 7, False, ("dump_id", "gpu_va"), "II",
                 canon=lambda a: ("dump", a.gpu_va),
                 text=lambda a: f"load    dump {a.dump_id} at {a.gpu_va:#010x}"),
)
SCHEMA_BY_CLASS = {s.cls: s for s in ACTION_SCHEMAS}


def canonical_actions(rec: Recording) -> list[tuple]:
    """Projection for comparing recordings of the same workload: erases
    poll counts, interval fields, wait residencies and NONDET expectations,
    which are the permitted run-to-run variations."""
    return [SCHEMA_BY_CLASS[type(a)].canon(a) for a in rec.actions]
