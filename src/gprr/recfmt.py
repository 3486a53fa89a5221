"""Bit-exact binary codec for .gpr recording files.

Little-endian throughout, fixed-width counts, deterministic output:
identical Recording values encode to identical bytes. Dump payloads are
raw DEFLATE streams. The file ends with a SHA-256 over everything before
it. See docs/format.md for the byte-level layout; action payloads follow
gprr.actions.ACTION_SCHEMAS.

decode() never raises anything but DecodeError subclasses on arbitrary
bytes-like input; every error carries the byte offset it was detected at.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import fields
from operator import attrgetter

from .actions import (ACTION_SCHEMAS, ActionSchema, DumpOrigin, Granularity,
                      IoDescriptor, IoMode, IoRole, LoadMemDump, MemDump,
                      Recording, RecordingHeader, slot_factory)
from .device import MEM_BYTES

MAGIC = b"GPRR"
VERSION = 1


def deflate(data: bytes) -> bytes:
    c = zlib.compressobj(6, zlib.DEFLATED, -15)
    return c.compress(data) + c.flush()


def inflate(data: bytes, expect_len: int) -> bytes:
    d = zlib.decompressobj(-15)
    out = d.decompress(data, expect_len + 1)
    if len(out) != expect_len:
        raise zlib.error(f"decompressed to {len(out)}, expected {expect_len}")
    return out


class DecodeError(Exception):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class BadMagic(DecodeError):
    pass


class UnsupportedVersion(DecodeError):
    pass


class Truncated(DecodeError):
    pass


class BadChecksum(DecodeError):
    pass


class UnknownTag(DecodeError):
    pass


class Malformed(DecodeError):
    pass


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u16(self, v): self.parts.append(struct.pack("<H", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def u64(self, v): self.parts.append(struct.pack("<Q", v))

    def raw(self, b: bytes):
        self.parts.append(b)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


_U8, _U16, _U32, _U64 = (struct.Struct("<" + c) for c in "BHIQ")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Truncated(self.pos, f"needed {n} more bytes")
        b = self.data[self.pos:self.pos + n]
        self.pos += n
        return b

    def _int(self, fmt: struct.Struct) -> int:
        p = self.pos
        if p + fmt.size > len(self.data):
            raise Truncated(p, f"needed {fmt.size} more bytes")
        self.pos = p + fmt.size
        return fmt.unpack_from(self.data, p)[0]

    def u8(self): return self._int(_U8)
    def u16(self): return self._int(_U16)
    def u32(self): return self._int(_U32)
    def u64(self): return self._int(_U64)

    def blob32(self) -> bytes:
        n = self.u32()
        if n > len(self.data):
            raise Malformed(self.pos - 4, f"blob length {n} exceeds file size")
        return self._take(n)


def _layout(spec: ActionSchema) -> tuple[struct.Struct, struct.Struct | None]:
    """A named type packs tag, intervals and name length in its head and
    its fixed fields in its tail; any other type packs all in its head."""
    if spec.named:
        return struct.Struct("<BQQH"), struct.Struct("<" + spec.fmt)
    return struct.Struct("<BQQ" + spec.fmt), None


_ORIGINS = {o.value: o for o in DumpOrigin}
# a dump entry's fixed head: id, VA, raw length, origin, payload length
_DUMP_HEAD = struct.Struct("<IIIBI")
_new_dump = slot_factory(MemDump)
_LAYOUT_BY_TAG = {s.tag: (s, *_layout(s)) for s in ACTION_SCHEMAS}


def _packer(spec: ActionSchema, head: struct.Struct, tail):
    """A function that packs one ``spec.cls`` action into its wire bytes:
    one ``pack`` of all its fields, or for a named type its head, its
    name and its tail."""
    tag, pack = spec.tag, head.pack
    get = attrgetter("raw_interval_ns", "min_interval_ns", *spec.fields)
    if tail is None:
        return lambda a: pack(tag, *get(a))
    pack_tail = tail.pack

    def pack_named(a):
        raw_iv, min_iv, *values = get(a)
        name = a.reg_name.encode("utf-8")
        return pack(tag, raw_iv, min_iv, len(name)) + name + pack_tail(*values)
    return pack_named


_PACK_BY_CLASS = {spec.cls: _packer(spec, head, tail)
                  for spec, head, tail in _LAYOUT_BY_TAG.values()}


def _cut(pos: int, codes: str, end: int) -> Truncated:
    """Truncated at the first field of ``codes``, read from ``pos``, that
    runs past ``end``."""
    for c in codes:
        n = struct.calcsize("<" + c)
        if pos + n > end:
            return Truncated(pos, f"needed {n} more bytes")
        pos += n
    raise AssertionError("fields fit")


def _action_error(data: bytes, at: int) -> DecodeError:
    """The error in the action at ``at``, which does not fit or holds a
    bad value: the first field that runs past the end or is out of range.
    The slow path of ``_read_actions``: it reads the action again, field
    by field."""
    end = len(data)
    if at + 17 > end:  # every type starts with its tag and both intervals
        return _cut(at, "BQQ", end)
    layout = _LAYOUT_BY_TAG.get(data[at])
    if layout is None:
        return UnknownTag(at, f"unknown action tag {data[at]:#x}")
    spec, head, tail = layout
    p = at + head.size
    if p > end:
        return _cut(at, head.format[1:], end)
    if tail is None:
        last = head.unpack_from(data, at)[-1]
    else:
        n = head.unpack_from(data, at)[-1]
        if p + n > end:
            return Truncated(p, f"needed {n} more bytes")
        try:
            data[p:p + n].decode("utf-8")
        except UnicodeDecodeError:
            return Malformed(p - 2, "string is not valid UTF-8")
        p += n
        if p + tail.size > end:
            return _cut(p, spec.fmt, end)
        last = tail.unpack_from(data, p)[-1]
        p += tail.size
    if spec.indexes is not None and last >= len(spec.indexes[1]):
        # only a payload's final byte is range-checked
        return Malformed(p - 1, f"bad {spec.indexes[0]} {last}")
    raise AssertionError("the action decodes")


def _make_reader():
    """``_read_actions(data, p, count, refs)``: the ``count`` actions from
    byte ``p`` on, and the offset after them. It sets ``refs[dump_id]`` to
    the index of the first LoadMemDump of each id. An action that does not
    fit, or holds a bad value, raises the error ``_action_error`` finds in
    it.

    Compiled once, at import: one branch per tag, each unpacking its
    action's fields with its ``Struct`` and storing them straight into the
    slots of a new object, with no call per action into Python code."""
    env: dict = {"new": object.__new__, "error": _action_error, "struct": struct}
    lines = ["def _read_actions(data, p, count, refs):",
             "    out, names = [], {}",
             "    append = out.append",
             "    try:",
             "        for i in range(count):",
             "            tag = data[p]"]
    branch = "if"
    for spec, head, tail in _LAYOUT_BY_TAG.values():
        t = spec.tag
        slots = [f.name for f in fields(spec.cls)]
        assert len(slots) == 2 + spec.named + len(spec.fields), spec.cls
        env[f"cls{t}"], env[f"head{t}"] = spec.cls, head.unpack_from
        env.update((f"set{t}_{j}", getattr(spec.cls, n).__set__)
                   for j, n in enumerate(slots))
        vs = [f"v{j}" for j in range(len(slots))]
        if tail is None:
            body = [f"_, {', '.join(vs)} = head{t}(data, p)"]
            advance = f"p += {head.size}"
        else:
            env[f"tail{t}"] = tail.unpack_from
            # each distinct register name is decoded once
            body = [f"_, v0, v1, n = head{t}(data, p)",
                    f"q = p + {head.size} + n",
                    "b = data[q - n:q]",
                    "v2 = names.get(b)",
                    "if v2 is None:",
                    "    v2 = names[b] = b.decode('utf-8')",
                    f"{', '.join(vs[3:])}, = tail{t}(data, q)"]
            advance = f"p = q + {tail.size}"
        if spec.indexes is not None:
            env[f"values{t}"] = spec.indexes[1]
            body.append(f"{vs[-1]} = values{t}[{vs[-1]}]")
        if spec.cls is LoadMemDump:
            d = vs[slots.index("dump_id")]
            body += [f"if {d} not in refs:", f"    refs[{d}] = i"]
        body.append(f"a = new(cls{t})")
        body += [f"set{t}_{j}(a, {v})" for j, v in enumerate(vs)]
        body.append(advance)
        lines.append(f"            {branch} tag == {t}:")
        lines += ["                " + line for line in body]
        branch = "elif"
    lines += ["            else:",
              "                raise error(data, p)",
              "            append(a)",
              "    except (LookupError, ValueError, struct.error):",
              "        raise error(data, p) from None",
              "    return out, p"]
    exec("\n".join(lines) + "\n", env)
    return env["_read_actions"]


_read_actions = _make_reader()


def _dump_entry_error(r: _Reader):
    """Raise the error in the dump entry at ``r.pos``, which is cut short
    or out of range. The slow path of ``decode``'s dump loop: it reads the
    entry again, field by field."""
    dump_id, gpu_va, raw_len = r.u32(), r.u32(), r.u32()
    if raw_len > MEM_BYTES:
        # checked before inflating: DEFLATE expands zeros ~1000:1
        raise Malformed(r.pos - 4, f"dump {dump_id} raw length {raw_len} "
                        f"exceeds device memory {MEM_BYTES}")
    at = r.pos
    origin_b = r.u8()
    if origin_b not in _ORIGINS:
        raise Malformed(at, f"bad dump origin {origin_b}")
    r.blob32()
    raise AssertionError("the entry decodes")


def encode(rec: Recording) -> bytes:
    w = _Writer()
    h = rec.header
    w.raw(MAGIC)
    w.u16(VERSION)
    w.u32(h.sku_id)
    w.raw(h.register_map_hash)
    w.u64(h.created_unix)
    w.u8(h.granularity.value)
    label = h.workload_label.encode("utf-8")
    w.u8(len(label))
    w.raw(label)

    w.u32(len(rec.actions))
    parts, packers = w.parts, _PACK_BY_CLASS
    for a in rec.actions:
        pack = packers.get(type(a))
        if pack is None:
            raise TypeError(f"not a replay action: {a!r}")
        parts.append(pack(a))

    w.u32(len(rec.dumps))
    for d in rec.dumps:
        parts.append(_DUMP_HEAD.pack(d.dump_id, d.gpu_va, d.raw_len,
                                     d.origin_filter.value, len(d.payload)))
        parts.append(d.payload)

    w.u32(len(rec.io_table))
    for io in rec.io_table:
        w.u8(io.role.value)
        w.u32(io.gpu_va)
        w.u32(io.len_bytes)
        w.u8(io.mode.value)

    body = w.getvalue()
    return body + hashlib.sha256(body).digest()


def decode(data: bytes) -> Recording:
    data = bytes(data)  # any bytes-like input; a bytes argument is not copied
    r = _Reader(data)
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic(0, "bad file magic")
    r._take(4)
    version = r.u16()
    if version != VERSION:
        raise UnsupportedVersion(4, f"unsupported version {version}")
    sku_id = r.u32()
    map_hash = r._take(32)
    created = r.u64()
    at = r.pos
    gran_b = r.u8()
    try:
        gran = Granularity(gran_b)
    except ValueError:
        raise Malformed(at, f"bad granularity {gran_b}") from None
    label_len = r.u8()
    if label_len > 64:
        raise Malformed(r.pos - 1, f"label length {label_len} > 64")
    at = r.pos
    try:
        label = r._take(label_len).decode("utf-8")
    except UnicodeDecodeError:
        raise Malformed(at, "label is not valid UTF-8") from None
    header = RecordingHeader(sku_id, map_hash, created, gran, label)

    count = r.u32()
    refs: dict[int, int] = {}  # dump id -> index of its first LoadMemDump
    actions, r.pos = _read_actions(data, r.pos, count, refs)

    n_dumps = r.u32()
    dumps = []
    # each distinct (payload, raw length) is inflated once and its bytes
    # shared by every dump that repeats it; None past the byte cap
    raws: dict[tuple[bytes, int], bytes | None] = {}
    kept = 0  # raw bytes of the distinct dumps inflated so far
    head, head_size, end = _DUMP_HEAD.unpack_from, _DUMP_HEAD.size, len(data)
    for _ in range(n_dumps):
        # one unpack reads the entry's fixed head
        p = r.pos
        q = p + head_size
        if q > end:
            _dump_entry_error(r)
        dump_id, gpu_va, raw_len, origin_b, n = head(data, p)
        origin = _ORIGINS.get(origin_b)
        if raw_len > MEM_BYTES or origin is None or q + n > end:
            _dump_entry_error(r)
        payload = data[q:q + n]
        r.pos = q + n
        key = (payload, raw_len)
        if key in raws:
            raw = raws[key]
        else:
            try:
                raw = inflate(payload, raw_len)
            except zlib.error as e:
                raise Malformed(r.pos, f"dump {dump_id} payload: {e}") from None
            kept += raw_len
            if kept > MEM_BYTES:  # a file keeps no more than one maximal dump
                raw = None
            raws[key] = raw
        dumps.append(_new_dump(dump_id, gpu_va, raw_len, payload, origin, raw))

    n_io = r.u32()
    io_table = []
    for _ in range(n_io):
        at = r.pos
        role_b, gpu_va, len_bytes, mode_b = r.u8(), r.u32(), r.u32(), r.u8()
        try:
            io_table.append(IoDescriptor(IoRole(role_b), gpu_va, len_bytes,
                                         IoMode(mode_b)))
        except ValueError:
            raise Malformed(at, "bad io descriptor role/mode") from None

    remaining = len(data) - r.pos
    if remaining < 32:
        raise Truncated(r.pos, "checksum missing")
    if remaining > 32:
        raise Malformed(r.pos, f"{remaining - 32} trailing bytes before checksum")
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise BadChecksum(len(data) - 32, "trailing checksum does not match")

    dump_ids = {d.dump_id for d in dumps}
    for dump_id, i in refs.items():  # in action order
        if dump_id not in dump_ids:
            raise Malformed(r.pos, f"action {i} references missing dump {dump_id}")

    return Recording(header, tuple(actions), tuple(dumps), tuple(io_table))


def read_file(path) -> Recording:
    with open(path, "rb") as f:
        return decode(f.read())


def write_file(path, rec: Recording) -> int:
    data = encode(rec)
    with open(path, "wb") as f:
        f.write(data)
    return len(data)
