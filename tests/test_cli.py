"""CLI surface: subcommands, exit codes, file handling, determinism."""

import hashlib
import struct
from pathlib import Path

import pytest

from gprr.cli import dispatch
from gprr.refstack import build_graph

from conftest import i32s, unpack32

VECADD_TXT = "input 8\nlayer vec_add\n"
MIXED_TXT = "input 16\nlayer vec_add\nlayer scale 3\nlayer relu\n"


@pytest.fixture
def ws(tmp_path):
    w = tmp_path / "vecadd.txt"
    w.write_text(VECADD_TXT)
    return tmp_path, w


def test_record_verify_inspect_replay(ws, capsys):
    tmp, wl = ws
    out = tmp / "rec.gpr"
    assert dispatch(["record", str(wl), "-o", str(out)]) == 0
    assert out.exists()

    assert dispatch(["verify", str(out)]) == 0
    assert "0 violations" in capsys.readouterr().out

    assert dispatch(["inspect", str(out)]) == 0
    text = capsys.readouterr().out
    assert "JOB_START" in text and "waitirq" in text

    inp = tmp / "in.bin"
    inp.write_bytes(i32s([1, 2, 3, 4, 10, 20, 30, 40]))
    outp = tmp / "out.bin"
    assert dispatch(["replay", str(out), "--input", str(inp),
                     "--output", str(outp)]) == 0
    assert unpack32(outp.read_bytes()) == [11, 22, 33, 44]


def test_identical_seeds_give_identical_bytes(ws):
    tmp, wl = ws
    a, b = tmp / "a.gpr", tmp / "b.gpr"
    for path in (a, b):
        assert dispatch(["record", str(wl), "-o", str(path), "--seed", "5",
                         "--delays", "1000,500,300"]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp / "c.gpr"
    assert dispatch(["record", str(wl), "-o", str(c), "--seed", "6",
                     "--delays", "1000,500,300"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_verify_json_and_custom_map(ws, tmp_path, capsys):
    tmp, wl = ws
    out = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(out)])
    assert dispatch(["verify", str(out), "--json"]) == 0
    assert '"ok": true' in capsys.readouterr().out
    # a map missing JOB_START makes the recording illegal
    small_map = tmp_path / "map.txt"
    small_map.write_text("GPU_ID 0x00 ro\nGPU_CMD 0x14 wo\n")
    assert dispatch(["verify", str(out), "--map", str(small_map)]) == 1
    assert "R1" in capsys.readouterr().out


def test_corrupted_file_fails_cleanly(ws, capsys):
    tmp, wl = ws
    out = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(out)])
    blob = bytearray(out.read_bytes())
    blob[-1] ^= 1
    bad = tmp / "bad.gpr"
    bad.write_bytes(bytes(blob))
    for argv in (["verify"], ["inspect"], ["replay"],
                 ["patch", "--from", "A", "--to", "B", "-o", str(tmp / "x.gpr")]):
        capsys.readouterr()
        assert dispatch([argv[0], str(bad), *argv[1:]]) == 1
        err = capsys.readouterr().err.lower()
        assert err.startswith("gprr: decode failed:") and "checksum" in err


def test_a_bad_action_fails_cleanly_at_its_byte(ws, capsys):
    """An unknown action tag (checksum fixed up) and a file cut inside an
    action each exit 1 and name the byte the reader stopped at."""
    tmp, wl = ws
    out = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(out)])
    blob = out.read_bytes()
    # magic, version, SKU, map hash, created, granularity, then the label
    # and the u32 action count
    label_at = 4 + 2 + 4 + 32 + 8 + 1
    first = label_at + 1 + blob[label_at] + 4
    body = bytearray(blob[:-32])
    body[first] = 0xEE
    cases = {
        "tag.gpr": (bytes(body) + hashlib.sha256(body).digest(),
                    f"unknown action tag 0xee (at byte {first})"),
        # the tag and raw interval fit, the pacing floor does not
        "cut.gpr": (blob[:first + 10], f"needed 8 more bytes (at byte {first + 9})"),
    }
    for name, (data, message) in cases.items():
        bad = tmp / name
        bad.write_bytes(data)
        for cmd in ("verify", "inspect", "replay"):
            capsys.readouterr()
            assert dispatch([cmd, str(bad)]) == 1
            assert capsys.readouterr().err == f"gprr: decode failed: {message}\n"


def test_usage_errors_exit_2(ws, capsys):
    tmp_path, wl = ws
    assert dispatch([]) == 2
    assert dispatch(["record"]) == 2
    assert dispatch(["replay", str(tmp_path / "missing.gpr")]) == 2
    rec = tmp_path / "rec.gpr"
    assert dispatch(["record", str(wl), "-o", str(rec)]) == 0
    capsys.readouterr()
    for text in ("input 8\nlayer frobnicate\n", "input 8\nfrobnicate 3\n",
                 "input 8\nlayer scale\n", "layer matmul 12 12 12\n"):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert dispatch(["record", str(bad), "-o", str(tmp_path / "x.gpr")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gprr: ") and err.count("\n") == 1
    assert dispatch(["replay", str(rec), "--inject-fault", "bogus"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err
    for line in ("GPU_ID 0x00 ro state_changing\n", "GPU_ID zero ro\n"):
        bad_map = tmp_path / "map.txt"
        bad_map.write_text(line)
        assert dispatch(["verify", str(rec), "--map", str(bad_map)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gprr: ") and err.count("\n") == 1
    assert dispatch(["patch", str(rec), "--from", "A", "--to", "Z",
                     "-o", str(tmp_path / "z.gpr")]) == 2


NOT_A_NUMBER = {"GPU_ID 0x0 ro\nGPU_STATUS zz ro\n": "'zz' is not a number",
                "input 8\nlayer scale x\n": "'x' is not a number"}


@pytest.mark.parametrize("kind, text, lineno", [
    ("map", "GPU_ID 0x0 ro\nGPU_STATUS zz ro\n", 2),
    ("map", "GPU_ID 0x0 ro\nGPU_STATUS 0x04 rx\n", 2),
    ("workload", "input 8\nlayer scale x\n", 2),
    ("workload", "input 12\nlayer matmul 2 2\n", 2),
    ("workload", "# no input line\nlayer matmul 2\n", 2),
    ("workload", "input 8\nlayer copy\nlayer frob\n", 3),
    ("workload", "input 8\nlayer scale 3\nlayer vec_add\n", 3),
])
def test_a_bad_map_or_workload_line_is_named_and_exits_2(ws, capsys, kind, text, lineno):
    tmp_path, wl = ws
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if kind == "map":
        rec = tmp_path / "rec.gpr"
        assert dispatch(["record", str(wl), "-o", str(rec)]) == 0
        capsys.readouterr()
        argv = ["verify", str(rec), "--map", str(bad)]
    else:
        argv = ["record", str(bad), "-o", str(tmp_path / "x.gpr")]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and f" line {lineno}: " in err and err.count("\n") == 1
    # a bad number reads as a harness file's does
    assert NOT_A_NUMBER.get(text, "") in err


def test_patch_subcommand_and_replay_on_b(ws, capsys):
    tmp, wl = ws
    rec = tmp / "a.gpr"
    patched = tmp / "b.gpr"
    dispatch(["record", str(wl), "-o", str(rec)])
    assert dispatch(["patch", str(rec), "--from", "A", "--to", "B",
                     "-o", str(patched)]) == 0
    assert "2 per-recording" in capsys.readouterr().out
    inp = tmp / "in.bin"
    inp.write_bytes(i32s([5, 5, 5, 5, 1, 1, 1, 1]))
    outp = tmp / "out.bin"
    assert dispatch(["replay", str(patched), "--sku", "B", "--input", str(inp),
                     "--output", str(outp)]) == 0
    assert unpack32(outp.read_bytes()) == [6, 6, 6, 6]
    # replaying the unpatched file on B refuses
    assert dispatch(["replay", str(rec), "--sku", "B", "--input", str(inp)]) == 1


def test_inject_fault_recovers(ws, capsys):
    tmp, wl = ws
    rec = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(rec)])
    inp = tmp / "in.bin"
    inp.write_bytes(i32s([1, 1, 1, 1, 2, 2, 2, 2]))
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--inject-fault", "corrupt_pte:once"]) == 0
    assert "recovered" in capsys.readouterr().err
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--inject-fault", "corrupt_pte:persist"]) == 1
    err = capsys.readouterr().err
    assert "diverged" in err
    assert "recovered" not in err  # failed recovery is not reported as one


def test_inject_offline_cores_and_stall(ws, capsys):
    tmp, wl = ws
    rec = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(rec)])
    inp = tmp / "in.bin"
    inp.write_bytes(i32s([1, 1, 1, 1, 2, 2, 2, 2]))
    capsys.readouterr()
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--inject-fault", "offline_cores"]) == 0
    assert "recovered after 1 attempt(s)" in capsys.readouterr().err
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--inject-fault", "offline_cores:persist"]) == 1
    err = capsys.readouterr().err
    assert "VALUE_MISMATCH" in err and "JOB_AFFINITY" in err
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--inject-fault", "stall"]) == 0
    assert "replay ok" in capsys.readouterr().out


def test_inject_fault_refuses_a_sequence_before_reading_input(ws, capsys):
    tmp, wl = ws
    rec = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(rec)])
    missing = tmp / "no-such-input.bin"
    assert dispatch(["replay", str(rec), str(rec), "--input", str(missing),
                     "--inject-fault", "stall"]) == 2
    assert "single-recording" in capsys.readouterr().err


def test_per_layer_record_and_sequence_replay(tmp_path, capsys):
    wl = tmp_path / "mixed.txt"
    wl.write_text(MIXED_TXT)
    out = tmp_path / "mix.gpr"
    assert dispatch(["record", str(wl), "-o", str(out),
                     "--granularity", "per_layer"]) == 0
    layer_files = sorted(tmp_path.glob("mix.layer*.gpr"))
    assert len(layer_files) == 3
    g = build_graph([("vec_add",), ("scale", 3), ("relu",)], 16)
    inp = tmp_path / "in.bin"
    raw = i32s(list(range(-8, 8)))
    inp.write_bytes(raw)
    outp = tmp_path / "out.bin"
    assert dispatch(["replay", *map(str, layer_files), "--input", str(inp),
                     "--output", str(outp)]) == 0
    assert outp.read_bytes() == g.evaluate(raw)
    # each recording of a sequence recovers on its own, and says so
    capsys.readouterr()
    assert dispatch(["replay", *map(str, layer_files), "--input", str(inp),
                     "--output", str(outp), "--clock-div", "8"]) == 0
    assert capsys.readouterr().err.count("recovered after") == 3
    assert outp.read_bytes() == g.evaluate(raw)


def test_underclock_flag(ws, capsys):
    tmp, wl = ws
    rec = tmp / "rec.gpr"
    dispatch(["record", str(wl), "-o", str(rec)])
    inp = tmp / "in.bin"
    inp.write_bytes(i32s([1, 2, 3, 4, 4, 3, 2, 1]))
    assert dispatch(["replay", str(rec), "--input", str(inp),
                     "--clock-div", "8"]) == 0
    assert "recovered" in capsys.readouterr().err


def test_bench_reports_ratios(ws, capsys):
    tmp, wl = ws
    assert dispatch(["bench", str(wl)]) == 0
    out = capsys.readouterr().out
    assert "without skips" in out and "with per-job checkpoints" in out
    # parse the no-skip multiplier and check the headline claim
    import re
    m = re.search(r"without skips \(x([0-9.]+)\)", out)
    assert m and float(m.group(1)) >= 1.1


@pytest.mark.parametrize("count", ["-4", "0", "0x400001", "0x10000000"])
def test_input_counts_outside_device_memory_exit_2(tmp_path, capsys, count):
    # device memory holds 0x400000 words
    bad = tmp_path / "bad.txt"
    bad.write_text(f"input {count}\nlayer copy\n")
    assert dispatch(["record", str(bad), "-o", str(tmp_path / "x.gpr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and "input count" in err and err.count("\n") == 1


def test_a_directory_as_workload_or_output_exits_2(ws, capsys):
    tmp_path, wl = ws
    for argv in (["record", str(tmp_path), "-o", str(tmp_path / "x.gpr")],
                 ["record", str(wl), "-o", str(tmp_path)],
                 ["replay", str(tmp_path)]):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gprr: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["record", "bench"])
def test_a_workload_past_device_memory_exits_1(tmp_path, capsys, command):
    # the input fits device memory, but not with the layer's output beside it
    big = tmp_path / "big.txt"
    big.write_text("input 4000000\nlayer scale 3\n")
    argv = [command, str(big), *(["-o", str(tmp_path / "x.gpr")] if command == "record" else [])]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and "out of physical pages" in err and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_a_harness_with_fewer_than_one_trial_exits_2(ws, capsys, trials):
    tmp_path, wl = ws
    harness = tmp_path / "harness.txt"
    harness.write_text(f"trials {trials}\n")
    assert dispatch(["record", str(wl), "--harness", str(harness),
                     "-o", str(tmp_path / "x.gpr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and "trials" in err and err.count("\n") == 1


@pytest.mark.parametrize("index", ["99", "1", "-1"])
def test_a_harness_naming_an_input_the_workload_lacks_exits_2(ws, capsys, index):
    # the stack packs every operand of a workload into input 0
    tmp_path, wl = ws
    harness, out = tmp_path / "harness.txt", tmp_path / "x.gpr"
    harness.write_text(f"input {index} by_value\n")
    assert dispatch(["record", str(wl), "--harness", str(harness), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and f"input {index}," in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["record", "bench"])
@pytest.mark.parametrize("delays", ["0,0,-5", "-1,0,0", f"{1 << 64},0,0"])
def test_delays_outside_0_to_the_longest_sleep_exit_2(ws, capsys, command, delays):
    # a negative jitter once reached random.randint, and a 2**64 ns sleep
    # overflowed an interval field of the .gpr
    tmp_path, wl = ws
    out = tmp_path / "x.gpr"
    argv = [command, str(wl), f"--delays={delays}",
            *(["-o", str(out)] if command == "record" else [])]
    assert dispatch(argv) == 2
    assert "--delays wants" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["input 16\nlayer matmul 0 4 4\n",
                                  "input 16\nlayer matmul 4 0 4\n",
                                  "input 12\nlayer matmul -2 -2 -3\n"])
def test_a_matmul_dimension_below_1_exits_2(tmp_path, capsys, text):
    # each input count fits its dimensions, which once passed the parser and
    # failed I/O discovery as ambiguous (exit 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert dispatch(["record", str(bad), "-o", str(tmp_path / "x.gpr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gprr: ") and "at least 1" in err and err.count("\n") == 1


@pytest.fixture
def va_gpr(ws, capsys):
    tmp_path, wl = ws
    rec = tmp_path / "rec.gpr"
    assert dispatch(["record", str(wl), "-o", str(rec)]) == 0
    capsys.readouterr()
    return rec


@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_clock_div_below_1_exits_2(va_gpr, capsys, value):
    # the flag once set the device's divider past the CLOCK_DIV register's
    # floor of 1, and the replay ran ok in less virtual time than at 1
    assert dispatch(["replay", str(va_gpr), f"--clock-div={value}"]) == 2
    assert f"--clock-div: {value} is below 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "-2"])
def test_a_negative_checkpoint_interval_exits_2(va_gpr, capsys, value):
    # -2 once took a checkpoint after every second job
    assert dispatch(["replay", str(va_gpr), f"--checkpoint-every={value}"]) == 2
    assert f"--checkpoint-every: {value} is below 0" in capsys.readouterr().err


def test_a_negative_memory_budget_exits_2(va_gpr, capsys):
    # -1 once flagged R3 at every map and exited 1
    assert dispatch(["verify", str(va_gpr), "--mem-budget=-1"]) == 2
    assert "--mem-budget: -1 is below 0" in capsys.readouterr().err
