"""Whole-path robustness on untrusted input, in forked workers under an
address-space limit and a per-case alarm: never another exception, a hang
or unbounded memory.

- Mutated recordings of mixed3 through encode, decode, verify, load and
  two replays must end in a DecodeError, a LoadError or ReplayError, or a
  ReplayResult.
- Mutated argv lists and workload, harness and register-map texts through
  ``cli.dispatch`` must end in exit code 0, 1 or 2.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import os
import random
import resource
import signal
import multiprocessing
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor

from gprr import recfmt
from gprr.cli import dispatch
from gprr.actions import ACTION_SCHEMAS, ActionClass, IoDescriptor, IoMode, IoRole
import gprr.device as dv
from gprr.device import DEFAULT_REGISTER_MAP, Device
from gprr.recfmt import DecodeError, deflate
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
            raw = zlib.decompress(d.payload, -15)  # all of it, whatever raw_len claims
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


def _address_space_in_use() -> int:
    """The bytes of address space this process maps (its ``VmSize``)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


def _limit_child():
    # a worker forked from pytest starts with every device arena the earlier
    # tests keep alive: the cap is that plus ADDRESS_SPACE for the cases
    cap = _address_space_in_use() + ADDRESS_SPACE
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _alarm)


def _run_chunk(case, shared, seeds: range) -> list[tuple[int, str]]:
    out = []
    for seed in seeds:
        signal.alarm(CASE_SECONDS)
        try:
            out.append((seed, case(shared, seed)))
        except BaseException:
            out.append((seed, "FAILED\n" + traceback.format_exc()))
        finally:
            signal.alarm(0)
    return out


def run_cases(case, shared, cases: int) -> set[str]:
    """``case(shared, seed)`` for every seed below ``cases``, in forked
    workers; the set of ends it named. Fails on any case that raised."""
    step = -(-cases // (4 * WORKERS))
    chunks = [range(lo, min(lo + step, cases)) for lo in range(0, cases, step)]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(WORKERS, mp_context=ctx, initializer=_limit_child) as pool:
        results = [r for chunk in pool.map(functools.partial(_run_chunk, case),
                                           [shared] * len(chunks), chunks)
                   for r in chunk]
    assert len(results) == cases
    failed = [(seed, how) for seed, how in results if how.startswith("FAILED")]
    assert not failed, f"{len(failed)} cases failed; first, seed {failed[0][0]}:\n{failed[0][1]}"
    return {how for _, how in results}


def _recording_case(base, seed: int) -> str:
    blob = recfmt.encode(mutate(base, random.Random(seed)))
    return run_case(blob, force=seed % 2 == 1, seed=seed)


def test_mutated_recordings_end_in_an_error_or_a_result():
    ends = run_cases(_recording_case, record_graph(_MIXED3).recordings[0], CASES)
    assert {"decode-error", "load-or-replay-error", "replayed-ok", "replayed-diverged"} <= ends


# -- the CLI ----------------------------------------------------------------------

CLI_CASES = 500

_WORKLOADS = (
    "input 8\nlayer vec_add\n",
    "input 16\nlayer vec_add\nlayer scale 3\nlayer relu\n",
    "layer matmul 2 3 2\n",
    "input 0x10  # staged\nlayer copy\nlayer scale -1\n",
)
_HARNESSES = (
    "input 0 by_value\n",
    "trials 3\nmagic_seed 7\n",
    "granularity per_layer\n",
    "input 1 both\ngranularity monolithic  # default\n",
)
_REGISTER_MAP = "".join(f"{r.name} {r.offset:#x} {r.access.value} {r.state_class.value}\n"
                        for r in DEFAULT_REGISTER_MAP.entries)
_WORDS = ("input", "layer", "vec_add", "scale", "relu", "copy", "matmul", "by_value",
          "by_address", "both", "trials", "magic_seed", "granularity", "per_layer",
          "ro", "wo", "rw", "pure_read", "nondet_read", "GPU_ID", "JOB_START", "#", "é")
_NUMBERS = ("0", "1", "-1", "2", "3", "8", "16", "0x10", "0b11", "1e3", "abc", "65536",
            str(dv.MEM_BYTES // 4), str(dv.MEM_BYTES // 4 + 1), str(1 << 31), str(1 << 64))
_FILES = ("w.txt", "h.txt", "m.txt", "r.gpr", "bad.gpr", "in.bin", "dir", "missing", "")
_OPTIONS = {  # option -> values to draw for it; None for a flag
    "--harness": _FILES, "--map": _FILES, "--input": _FILES, "--output": _FILES,
    "-o": _FILES, "--granularity": ("monolithic", "per_layer", "layered"),
    "--sku": ("A", "b", "C", "Z"), "--from": ("A", "B"), "--to": ("b", "C", "Z"),
    "--delays": ("1000,500,300", "1,2", "-5,0,0", "0,0,-5", "a,b,c", f"{1 << 64},0,0"),
    "--seed": _NUMBERS, "--checkpoint-every": _NUMBERS, "--clock-div": _NUMBERS,
    "--mem-budget": _NUMBERS,
    "--inject-fault": ("stall", "stall:persist:5000", "corrupt_pte", "corrupt_pte:persist",
                       "offline_cores:0", "offline_cores:0x1:once", "stall:abc", "halt"),
    "--no-skip": None, "--force": None, "--json": None, "--help": None,
}
_COMMANDS = {  # a well-formed argv for each subcommand, and the options it takes
    "record": (["record", "w.txt", "-o", "out.gpr"],
               ("--harness", "--granularity", "--sku", "--delays", "--seed")),
    "replay": (["replay", "r.gpr", "--input", "in.bin", "--output", "out.bin"],
               ("--sku", "--seed", "--no-skip", "--checkpoint-every", "--inject-fault",
                "--clock-div", "--force")),
    "verify": (["verify", "r.gpr"], ("--mem-budget", "--map", "--json")),
    "inspect": (["inspect", "r.gpr"], ()),
    "patch": (["patch", "r.gpr", "--from", "A", "--to", "B", "-o", "out.gpr"], ("--from", "--to")),
    "bench": (["bench", "w.txt"], ("--sku", "--seed", "--delays")),
}


def _mutate_text(rng: random.Random, text: str) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(5)
        i = rng.randrange(len(lines) + 1)
        if kind == 0 and lines[i:] and lines[i]:
            line = lines[i]
            line[rng.randrange(len(line))] = rng.choice(_NUMBERS + _WORDS)
        elif kind == 1 and lines[i:]:
            del lines[i]
        elif kind == 2 and lines:
            lines.insert(i, list(rng.choice(lines)))
        elif kind == 3:
            lines.insert(i, [rng.choice(_WORDS) for _ in range(rng.randint(0, 4))])
        elif lines[i:]:
            lines[i].append(rng.choice(_NUMBERS))
    return "".join(" ".join(line) + "\n" for line in lines)


def _mutate_argv(rng: random.Random, command: str) -> list[str]:
    """The subcommand's argv with up to three edits after its name: mostly
    an option it takes, else any option, a replaced, dropped or repeated
    word."""
    argv, own = _COMMANDS[command]
    argv = list(argv)
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(1, len(argv))
        roll = rng.random()
        if roll < 0.5:
            opt = rng.choice(own if own and roll < 0.4 else list(_OPTIONS))
            argv[i:i] = [opt] if _OPTIONS[opt] is None else [opt, rng.choice(_OPTIONS[opt])]
        elif roll < 0.7 and argv[i:]:
            argv[i] = rng.choice(_FILES + _NUMBERS)
        elif roll < 0.85 and argv[i:]:
            del argv[i]
        else:
            argv.insert(i, rng.choice(argv))
    return argv


def _cli_case(shared: tuple[str, bytes], seed: int) -> str:
    """One mutated argv, run against mutated text files and a recording in a
    directory of its own, by exit code."""
    cases_dir, blob = shared
    rng = random.Random(seed)
    case = os.path.join(cases_dir, str(seed))
    os.makedirs(os.path.join(case, "dir"))
    os.chdir(case)  # every path an argv names, written ones too, is in it
    bad = bytearray(blob)
    bad[rng.randrange(len(bad))] ^= 0xFF
    files = {
        "w.txt": _mutate_text(rng, rng.choice(_WORKLOADS)).encode(),
        "h.txt": _mutate_text(rng, rng.choice(_HARNESSES)).encode(),
        "m.txt": _mutate_text(rng, _REGISTER_MAP).encode(),
        "r.gpr": blob,
        "bad.gpr": bytes(bad),
        "in.bin": rng.randbytes(rng.choice((0, 3, 32, 64))),
    }
    if rng.random() < 0.1:
        files["w.txt"] += b"\xff\xfe"
    for name, data in files.items():
        with open(name, "wb") as f:
            f.write(data)
    argv = _mutate_argv(rng, rng.choice(list(_COMMANDS)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in (0, 1, 2), f"exit code {code!r} for {argv}"
    return f"exit {code}"


def test_mutated_command_lines_and_texts_end_in_an_exit_code(tmp_path):
    base = recfmt.encode(record_graph(build_graph([("vec_add",)], 8)).recordings[0])
    ends = run_cases(_cli_case, (str(tmp_path), base), CLI_CASES)
    assert ends == {"exit 0", "exit 1", "exit 2"}
