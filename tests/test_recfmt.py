"""Binary codec: round trips, structured failures, fuzz totality."""

import copy
import dataclasses
import hashlib
import pickle
import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from gprr import recfmt
from gprr.actions import (ACTION_SCHEMAS, ActionClass, DumpOrigin, Granularity,
                          IoDescriptor, IoMode, IoRole, LoadMemDump, MapGpuMem,
                          MemDump, Recording, RecordingHeader, RegRead,
                          RegReadWait, RegWrite, UnmapGpuMem, WaitIrq)
from gprr.device import DEFAULT_REGISTER_MAP
from gprr.recfmt import (BadChecksum, BadMagic, DecodeError, Malformed,
                         Truncated, UnknownTag, UnsupportedVersion, decode,
                         deflate, encode)

from conftest import record_graph
from gprr.refstack import build_graph

MAP_HASH = DEFAULT_REGISTER_MAP.digest()


def header(**kw):
    defaults = dict(sku_id=0x0B31, register_map_hash=MAP_HASH, created_unix=0,
                    granularity=Granularity.MONOLITHIC, workload_label="t")
    defaults.update(kw)
    return RecordingHeader(**defaults)


def small_recording():
    payload = bytes(range(64)) * 8
    actions = (
        RegWrite(0, 0, "GPU_CMD", 1),
        RegRead(10, 5, "GPU_ID", 0x0B31, ActionClass.STATE),
        RegRead(0, 0, "JOB_PROGRESS", 0, ActionClass.NONDET),
        RegReadWait(3, 3, "GPU_STATUS", 0x2, 0, 7),
        WaitIrq(0, 0, 0x1, 4321),
        MapGpuMem(0, 0, 0x400000, 4096, 0b0111),
        LoadMemDump(0, 0, 0, 0x400000),
        UnmapGpuMem(0, 0, 0x400000, 4096),
    )
    dumps = (MemDump(0, 0x400000, len(payload), deflate(payload),
                     DumpOrigin.EXEC_PAGE),)
    io = (IoDescriptor(IoRole.INPUT, 0x400000, 32, IoMode.BY_ADDRESS),
          IoDescriptor(IoRole.OUTPUT, 0x400100, 16, IoMode.BY_ADDRESS))
    return Recording(header(), actions, dumps, io)


def test_roundtrip_identity_small():
    rec = small_recording()
    blob = encode(rec)
    assert decode(blob) == rec
    assert encode(decode(blob)) == blob


def test_roundtrip_identity_real_recordings():
    for specs, elems in ([("vec_add",)], 8), ([("vec_add",), ("relu",)], 8):
        rec = record_graph(build_graph(specs, elems)).recordings[0]
        blob = encode(rec)
        assert decode(blob) == rec
        assert encode(decode(blob)) == blob


def test_identical_values_encode_identically():
    assert encode(small_recording()) == encode(small_recording())


def test_empty_recording_is_header_counts_checksum():
    rec = Recording(header(workload_label=""), (), (), ())
    blob = encode(rec)
    # magic 4 + version 2 + sku 4 + hash 32 + created 8 + gran 1 + label_len 1
    # + three u32 counts + sha256
    assert len(blob) == 4 + 2 + 4 + 32 + 8 + 1 + 1 + 12 + 32
    assert decode(blob) == rec


def test_bad_magic():
    with pytest.raises(BadMagic):
        decode(b"NOPE" + encode(small_recording())[4:])


def test_unsupported_version():
    blob = bytearray(encode(small_recording()))
    blob[4] = 0xEE
    with pytest.raises((UnsupportedVersion, BadChecksum)):
        # version check fires first because parsing precedes the checksum
        decode(bytes(blob))
    try:
        decode(bytes(blob))
    except DecodeError as e:
        assert isinstance(e, UnsupportedVersion)
        assert e.offset == 4


def test_flipped_checksum_byte():
    blob = bytearray(encode(small_recording()))
    blob[-1] ^= 0xFF
    with pytest.raises(BadChecksum) as ei:
        decode(bytes(blob))
    assert ei.value.offset == len(blob) - 32


def test_a_body_byte_past_the_io_table_is_malformed():
    body = encode(small_recording())[:-32] + b"\x00"
    with pytest.raises(Malformed, match="1 trailing bytes before checksum") as ei:
        decode(body + hashlib.sha256(body).digest())
    assert ei.value.offset == len(body) - 1


def test_truncated_mid_action():
    rec = small_recording()
    blob = encode(rec)
    # cut inside the action array, well before the trailing checksum
    cut = len(blob) // 2
    with pytest.raises(DecodeError) as ei:
        decode(blob[:cut])
    assert isinstance(ei.value, (Truncated, Malformed, UnknownTag))
    assert ei.value.offset <= cut


def test_unknown_action_tag():
    rec = Recording(header(), (RegWrite(0, 0, "GPU_CMD", 1),), (), ())
    blob = bytearray(encode(rec)[:-32])
    # the action tag sits right after the fixed header for a 1-byte label
    tag_at = 4 + 2 + 4 + 32 + 8 + 1 + 1 + len("t") + 4 - 1 + 1
    assert blob[tag_at] == 1
    blob[tag_at] = 0xFF
    import hashlib
    data = bytes(blob) + hashlib.sha256(bytes(blob)).digest()
    with pytest.raises(UnknownTag) as ei:
        decode(data)
    assert ei.value.offset == tag_at


def test_register_name_that_is_not_utf8():
    rec = Recording(header(), (RegWrite(0, 0, "GPU_CMD", 1),), (), ())
    blob = bytearray(encode(rec))
    at = bytes(blob).index(b"GPU_CMD")
    blob[at] = 0xFF
    body = bytes(blob[:-32])
    with pytest.raises(Malformed, match="not valid UTF-8") as err:
        decode(body + hashlib.sha256(body).digest())
    assert err.value.offset == at - 2  # the name's length field


def test_a_repeated_name_decodes_once_and_a_bad_one_still_fails_at_its_offset():
    acts = (RegWrite(0, 0, "GPU_CMD", 1), RegWrite(0, 0, "GPU_CMD", 2),
            RegWrite(0, 0, "GPU_CMD", 3))
    blob = bytearray(encode(Recording(header(), acts, (), ())))
    got = decode(bytes(blob)).actions
    assert got == acts and got[0].reg_name is got[2].reg_name
    at = bytes(blob).rindex(b"GPU_CMD")
    blob[at + 3] = 0xC0
    body = bytes(blob[:-32])
    with pytest.raises(Malformed, match="not valid UTF-8") as err:
        decode(body + hashlib.sha256(body).digest())
    assert err.value.offset == at - 2


def test_bytes_like_input_decodes_as_bytes():
    blob = encode(record_graph(build_graph([("vec_add",), ("relu",)], 8)).recordings[0])
    want = decode(blob)
    for data in (bytearray(blob), memoryview(blob)):
        assert decode(data) == want
    with pytest.raises(BadChecksum):
        decode(bytearray(blob[:-1] + bytes([blob[-1] ^ 1])))


def test_dangling_dump_reference():
    rec = Recording(header(), (LoadMemDump(0, 0, 9, 0x400000),), (), ())
    import hashlib
    body = encode(rec)[:-32]
    with pytest.raises(Malformed):
        decode(body + hashlib.sha256(body).digest())


def test_label_too_long_rejected_at_build():
    with pytest.raises(ValueError):
        header(workload_label="x" * 65)


def test_inflate_length_mismatch():
    with pytest.raises(Exception):
        recfmt.inflate(deflate(b"abc"), 5)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_fuzz_decode_never_crashes(data):
    try:
        decode(data)
    except DecodeError:
        pass


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2000), st.integers(0, 255))
def test_fuzz_mutated_valid_files(seed, pos, val):
    blob = bytearray(encode(small_recording()))
    blob[pos % len(blob)] = val
    try:
        decode(bytes(blob))
    except DecodeError:
        pass


def test_oversized_dump_rejected_before_inflating():
    raw_len = 64 << 20
    c = zlib.compressobj(6, zlib.DEFLATED, -15)
    chunk = bytes(1 << 20)
    payload = b"".join(c.compress(chunk) for _ in range(raw_len // len(chunk)))
    payload += c.flush()
    dump = MemDump(0, 0x400000, raw_len, payload, DumpOrigin.EXEC_PAGE)
    blob = encode(Recording(header(), (), (dump,), ()))
    assert len(blob) < 70_000
    # the dump table starts where an empty recording's io count would be
    raw_len_at = len(encode(Recording(header(), (), (), ()))) - 36 + 8
    tracemalloc.start()
    try:
        with pytest.raises(Malformed) as err:
            decode(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert err.value.offset == raw_len_at


def test_decode_keeps_checked_dumps_up_to_device_memory():
    # four 4 MiB dumps fill the 16 MiB the decoder keeps; the fifth and
    # everything after it is checked and dropped
    big, small = 4 << 20, 4096
    dumps = tuple(MemDump(i, 0x400000, big, deflate(bytes([i]) * big), DumpOrigin.EXEC_PAGE)
                  for i in range(5))
    dumps += (MemDump(5, 0x400000, small, deflate(b"\x07" * small), DumpOrigin.EXEC_PAGE),)
    rec = Recording(header(), (), dumps, ())
    blob = encode(rec)
    got = decode(blob)
    assert [d.raw for d in got.dumps[:4]] == [bytes([i]) * big for i in range(4)]
    assert [d.raw for d in got.dumps[4:]] == [None, None]
    # the kept bytes are no part of the dump's value
    assert got == rec and encode(got) == blob
    assert hash(got.dumps[0]) == hash(dumps[0]) and repr(got.dumps[0]) == repr(dumps[0])
    assert dataclasses.replace(got.dumps[0]).raw is None


def test_dumps_that_repeat_a_payload_share_one_inflate(monkeypatch):
    # five 4 MiB dumps of one payload are 4 MiB of distinct bytes: all are
    # kept, as the very same bytes, from one inflate
    big = 4 << 20
    payload = deflate(b"\x05" * big)
    dumps = tuple(MemDump(i, 0x400000, big, payload, DumpOrigin.EXEC_PAGE) for i in range(5))
    rec = Recording(header(), (), dumps, ())
    calls = []
    real = recfmt.inflate
    monkeypatch.setattr(recfmt, "inflate", lambda *a: calls.append(a) or real(*a))
    got = decode(encode(rec))
    assert len(calls) == 1
    assert got.dumps[0].raw == b"\x05" * big
    assert all(d.raw is got.dumps[0].raw for d in got.dumps)
    assert got == rec


def test_a_repeated_payload_of_another_length_is_rejected_at_its_dump():
    payload = deflate(b"repeated payload " * 64)
    dumps = (MemDump(0, 0x400000, 17 * 64, payload, DumpOrigin.EXEC_PAGE),
             MemDump(1, 0x500000, 17 * 64 + 1, payload, DumpOrigin.EXEC_PAGE))
    blob = encode(Recording(header(), (), dumps, ()))
    second_end = blob.index(payload, blob.index(payload) + 1) + len(payload)
    with pytest.raises(Malformed, match="dump 1 payload") as err:
        decode(blob)
    assert err.value.offset == second_end


def test_zero_heavy_payload_compresses_below_half():
    raw = bytearray(8192)
    for i in range(0, len(raw), 128):
        raw[i] = i % 251
    assert len(deflate(bytes(raw))) < len(raw) // 2


def test_decoded_actions_and_dumps_are_the_values_they_were_encoded_from(recorded):
    for name, rec in recorded.items():
        got = decode(encode(rec))
        assert got == rec, name
        for a in got.actions + got.dumps:
            built = type(a)(*(getattr(a, f.name) for f in dataclasses.fields(a) if f.init))
            assert built == a and hash(built) == hash(a)
            assert not hasattr(a, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, dataclasses.fields(a)[-1].name, 1)
            # a frozen slotted dataclass raises TypeError, not
            # FrozenInstanceError, for a name that is not a field
            with pytest.raises((TypeError, AttributeError)):
                a.extra = 1
            for twin in (dataclasses.replace(a), pickle.loads(pickle.dumps(a)),
                         copy.deepcopy(a)):
                assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)


def _decode_outcome(data: bytes) -> str:
    try:
        decode(data)
    except DecodeError as e:
        return f"{type(e).__name__} {e.offset} {e}"
    return "ok"


# SHA-256 of the outcomes below, one line each
DECODE_OUTCOMES_SHA256 = "b528d603936f8236e4d45eeb20517b7b1e56d06ddb7d96c69a1496977546ee67"


def test_decode_errors_keep_their_class_offset_and_message(recorded):
    """Every truncation of mixed3's file, and 3,000 seeded one-byte
    mutations with the checksum fixed up, end as pinned: the same
    DecodeError subclass at the same offset with the same message, or a
    decode that succeeds. A faster decoder must fail the same way."""
    blob = encode(recorded["mixed3"])
    outcomes = [_decode_outcome(blob[:n]) for n in range(len(blob))]
    rng = random.Random(20)
    for _ in range(3000):
        body = bytearray(blob[:-32])
        body[rng.randrange(len(body))] ^= rng.randrange(1, 256)
        outcomes.append(_decode_outcome(bytes(body) + hashlib.sha256(body).digest()))
    assert {o.split()[0] for o in outcomes} == {
        "ok", "BadMagic", "Truncated", "Malformed", "UnknownTag"}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == DECODE_OUTCOMES_SHA256


@pytest.mark.parametrize("cls", [s.cls for s in ACTION_SCHEMAS] + [MemDump],
                         ids=lambda c: c.__name__)
def test_every_slot_is_declared_once_along_the_mro(cls):
    # a name declared by a class and its base is a second, dead slot in
    # every instance (Python 3.10's dataclass(slots=True) re-declares a
    # slotted base's fields)
    declared = [n for c in cls.__mro__ for n in c.__dict__.get("__slots__", ())]
    assert len(declared) == len(set(declared)), declared
