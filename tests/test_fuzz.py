"""Whole-path robustness: mutated recordings of mixed3 through encode,
decode, verify, load and two replays. A .gpr file is untrusted input, so
every case must end in a DecodeError, a LoadError or ReplayError, or a
ReplayResult: never another exception, a hang or unbounded memory."""

from __future__ import annotations

import dataclasses
import random
import resource
import signal
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor

from gprr import recfmt
from gprr.actions import ACTION_SCHEMAS, ActionClass, IoDescriptor, IoMode, IoRole
from gprr.device import DEFAULT_REGISTER_MAP, Device
from gprr.recfmt import DecodeError, deflate, inflate
from gprr.refstack import build_graph
from gprr.replayer import ReplayConfig, ReplayError, ReplayResult, init
from gprr.verifier import verify

from conftest import random_input, record_graph

CASES = 4500
WORKERS = 2
CASE_SECONDS = 5
ADDRESS_SPACE = 1 << 30

_MIXED3 = build_graph([("vec_add",), ("scale", 3), ("relu",)], 16)
_RANGES = {"B": 1 << 8, "H": 1 << 16, "I": 1 << 32, "Q": 1 << 64}
_NAMES = [r.name for r in DEFAULT_REGISTER_MAP.entries] + ["", "NO_SUCH_REG", "é"]


def _value(rng: random.Random, code: str, old: int) -> int:
    roll, top = rng.random(), _RANGES[code]
    if roll < 0.3:
        return rng.choice((0, 1, old + 1, old - 1)) % top
    if roll < 0.5:
        return top - 1
    return rng.randrange(top)


def _mutate_action(rng: random.Random, a):
    schema = next(s for s in ACTION_SCHEMAS if s.cls is type(a))
    choices = ["raw_interval_ns", "min_interval_ns", *(["reg_name"] if schema.named else [])]
    choices += list(schema.fields)
    name = rng.choice(choices)
    if name == "reg_name":
        return dataclasses.replace(a, reg_name=rng.choice(_NAMES))
    if name == "nondet":
        return dataclasses.replace(a, state_class=rng.choice(list(ActionClass)))
    code = "Q" if name.endswith("_ns") else schema.fmt[schema.fields.index(name)]
    return dataclasses.replace(a, **{name: _value(rng, code, getattr(a, name))})


def mutate(rec, rng: random.Random):
    actions, dumps, io = list(rec.actions), list(rec.dumps), list(rec.io_table)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 0 and actions:
            i = rng.randrange(len(actions))
            actions[i] = _mutate_action(rng, actions[i])
        elif kind == 1 and actions:
            del actions[rng.randrange(len(actions))]
        elif kind == 2 and actions:
            i = rng.randrange(len(actions))
            actions.insert(rng.randrange(len(actions) + 1), actions[i])
        elif kind == 3 and dumps:  # re-compressed, claiming a wrong length
            i = rng.randrange(len(dumps))
            d = dumps[i]
            raw = inflate(d.payload)
            raw = raw[:rng.randrange(len(raw) + 1)] + bytes(rng.randrange(3))
            dumps[i] = dataclasses.replace(d, payload=deflate(raw),
                                           raw_len=_value(rng, "I", d.raw_len) % (2 * len(raw) + 2))
        elif kind == 4 and dumps:
            i = rng.randrange(len(dumps))
            dumps[i] = dataclasses.replace(dumps[i], gpu_va=_value(rng, "I", dumps[i].gpu_va))
        elif kind == 5 and io:
            i = rng.randrange(len(io))
            d = io[i]
            io[i] = IoDescriptor(rng.choice(list(IoRole)), _value(rng, "I", d.gpu_va),
                                 _value(rng, "I", d.len_bytes), rng.choice(list(IoMode)))
    return dataclasses.replace(rec, actions=tuple(actions), dumps=tuple(dumps), io_table=tuple(io))


def run_case(blob: bytes, force: bool, seed: int) -> str:
    """What one case ends in, by name; raises anything else."""
    try:
        rec = recfmt.decode(blob)
    except DecodeError:
        return "decode-error"
    verify(rec)
    session = init(Device(env_seed=seed), ReplayConfig(force=force))
    try:
        session.load(rec)
        for k in range(2):
            result = session.replay(random_input(_MIXED3, seed + k))
            assert isinstance(result, ReplayResult)
    except ReplayError:  # LoadError included
        return "load-or-replay-error"
    finally:
        session.cleanup()
    return "replayed-ok" if result.ok else "replayed-diverged"


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun(f"case ran past {CASE_SECONDS} s")


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _alarm)


def _run_chunk(base_blob: bytes, seeds: range) -> list[tuple[int, str]]:
    base = recfmt.decode(base_blob)
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        signal.alarm(CASE_SECONDS)
        try:
            blob = recfmt.encode(mutate(base, rng))
            out.append((seed, run_case(blob, force=seed % 2 == 1, seed=seed)))
        except BaseException:
            out.append((seed, "FAILED\n" + traceback.format_exc()))
        finally:
            signal.alarm(0)
    return out


def test_mutated_recordings_end_in_an_error_or_a_result():
    base_blob = recfmt.encode(record_graph(_MIXED3).recordings[0])
    step = -(-CASES // (4 * WORKERS))
    chunks = [range(lo, min(lo + step, CASES)) for lo in range(0, CASES, step)]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(WORKERS, mp_context=ctx, initializer=_limit_child) as pool:
        results = [r for chunk in pool.map(_run_chunk, [base_blob] * len(chunks), chunks)
                   for r in chunk]
    assert len(results) == CASES
    failed = [(seed, how) for seed, how in results if how.startswith("FAILED")]
    assert not failed, f"{len(failed)} cases failed; first, seed {failed[0][0]}:\n{failed[0][1]}"
    ends = {how for _, how in results}
    assert {"decode-error", "load-or-replay-error", "replayed-ok", "replayed-diverged"} <= ends
