"""Command-line frontend: record, replay, verify, inspect, patch, bench.

Exit codes: 0 success, 1 verification or replay failure (details on
stderr), 2 usage error, including a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import device as dv
from . import recfmt
from .actions import SCHEMA_BY_CLASS, Granularity, MapGpuMem, RegWrite
from .device import Device, SKUS, parse_register_map
from .patcher import PatchError, patch_recording
from .recorder import (DiscoveryError, HarnessError, RecordHarness, parse_harness,
                       record)
from .refstack import DelayPolicy, DriverError, GpuStack, WorkloadError, parse_workload
from .replayer import (LoadError, ReplayConfig, ReplayError, init,
                       replay_sequence)
from .verifier import verify


class UsageError(Exception):
    """A bad argument or input text file; exits 2."""


def _err(msg: str) -> None:
    print(f"gprr: {msg}", file=sys.stderr)


def _parse_file(parse, path):
    """Parse a workload, harness or register map text file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None


_SKU_NAMES = [*SKUS, *(k.lower() for k in SKUS)]


def _sku(name: str):
    return SKUS[name.upper()]


def _parse_delays(text: str) -> DelayPolicy:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--delays wants jit,mgmt,jitter in ns")
    return DelayPolicy(*parts)


def _layer_path(base: Path, index: int) -> Path:
    return base.with_name(f"{base.stem}.layer{index}{base.suffix or '.gpr'}")


def cmd_record(args) -> int:
    graph = _parse_file(parse_workload, args.workload)
    if args.harness:
        harness = _parse_file(parse_harness, args.harness)
    else:
        harness = RecordHarness()
        harness.magic_seed = args.seed * 131 + 7
    if args.granularity:
        harness.granularity = Granularity[args.granularity.upper()]
    dev = Device(sku=_sku(args.sku), env_seed=args.seed)
    stack = GpuStack(dev, delays=args.delays or DelayPolicy(), rng_seed=args.seed)
    try:
        result = record(stack, graph, harness)
    except HarnessError as e:
        raise UsageError(f"{args.harness}: {e}") from None
    except (WorkloadError, DiscoveryError, DriverError) as e:
        _err(f"record failed: {e}")
        return 1
    out = Path(args.output)
    if harness.granularity is Granularity.PER_LAYER:
        for i, rec in enumerate(result.recordings):
            path = _layer_path(out, i)
            n = recfmt.write_file(path, rec)
            print(f"wrote {path} ({n} bytes, {len(rec.actions)} actions)")
    else:
        n = recfmt.write_file(out, result.recordings[0])
        rec = result.recordings[0]
        print(f"wrote {out} ({n} bytes, {len(rec.actions)} actions, "
              f"{len(rec.dumps)} dumps)")
    print(f"io discovery: {len(result.trials)} trial(s); intervals "
          f"skipped {result.skipped_intervals}, kept {result.kept_intervals}")
    return 0


def _parse_fault(spec: str):
    parts = spec.split(":")
    kind = parts[0]
    mode = "once"
    arg = None
    for p in parts[1:]:
        if p in ("once", "persist"):
            mode = p
        else:
            arg = int(p, 0)
    if kind not in ("corrupt_pte", "offline_cores", "stall"):
        raise argparse.ArgumentTypeError(f"unknown fault kind {kind!r}")
    return kind, mode, arg


def _wire_fault(session, rec, kind, mode, arg):
    if kind == "corrupt_pte":
        inputs = rec.inputs()
        va = inputs[0].gpu_va if inputs else next(
            a.gpu_va for a in rec.actions if isinstance(a, MapGpuMem))

        def hook(dev, attempt):
            if mode == "persist" or attempt == 0:
                dev.corrupt_pte(va)
        session.attempt_hook = hook
    elif kind == "offline_cores":
        # applied after the replayed reset, or the reset would heal it
        # before any power check reads the core mask
        mask = arg if arg is not None else session.dev.sku.full_core_mask
        state = {"armed": True}

        def post(sess, idx, action):
            if (isinstance(action, RegWrite) and action.reg_name == "GPU_CMD"
                    and action.value == dv.CMD_SOFT_RESET and state["armed"]):
                sess.dev.offline_cores(mask)
                if mode != "persist":
                    state["armed"] = False
        session.post_action_hook = post
    else:  # stall
        ns = arg if arg is not None else 20_000_000
        state = {"armed": True}

        def post(sess, idx, action):
            if (isinstance(action, RegWrite) and action.reg_name == "JOB_START"
                    and state["armed"]):
                sess.dev.stall(ns)
                if mode != "persist":
                    state["armed"] = False
        session.post_action_hook = post


def cmd_replay(args) -> int:
    recs = [recfmt.read_file(p) for p in args.recordings]
    dev = Device(sku=_sku(args.sku), env_seed=args.seed)
    dev.clock_div = args.clock_div
    cfg = ReplayConfig(honor_skips=not args.no_skip,
                       checkpoint_every_jobs=args.checkpoint_every,
                       force=args.force)
    session = init(dev, cfg)
    inputs = Path(args.input).read_bytes() if args.input else None
    fault = args.inject_fault
    try:
        if len(recs) == 1:
            session.load(recs[0])
            if fault:
                _wire_fault(session, recs[0], *fault)
            result = session.replay(inputs)
            outputs = result.outputs
            vclock = result.vclock_ns
            ok = result.ok
            if ok and result.recovery_attempts:
                print(f"recovered after {result.recovery_attempts} attempt(s)",
                      file=sys.stderr)
            if not ok and result.divergence:
                _err(f"replay diverged: {result.divergence}")
        else:
            if fault:
                _err("--inject-fault applies to single-recording replays")
                return 2
            seq = replay_sequence(session, recs, inputs)
            outputs, vclock, ok = seq.outputs, seq.vclock_ns, seq.ok
            if not ok:
                bad = next(r for r in seq.results if not r.ok)
                _err(f"sequence replay diverged: {bad.divergence}")
    except (LoadError, ReplayError) as e:
        _err(str(e))
        return 1
    finally:
        session.cleanup()
    if not ok:
        return 1
    if args.output and outputs:
        Path(args.output).write_bytes(outputs[-1])
        print(f"wrote {args.output} ({len(outputs[-1])} bytes)")
    print(f"replay ok, vclock {vclock} ns")
    return 0


def cmd_verify(args) -> int:
    try:
        rec = recfmt.read_file(args.recording)
    except recfmt.DecodeError as e:
        _err(f"decode failed: {e}")
        return 1
    reg_map = (_parse_file(parse_register_map, args.map)
               if args.map else dv.DEFAULT_REGISTER_MAP)
    report = verify(rec, reg_map, args.mem_budget)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


def cmd_inspect(args) -> int:
    try:
        rec = recfmt.read_file(args.recording)
    except recfmt.DecodeError as e:
        _err(f"decode failed: {e}")
        return 1
    h = rec.header
    print(f"recording {args.recording}")
    print(f"  sku_id        {h.sku_id:#06x}")
    print(f"  map hash      {h.register_map_hash.hex()[:16]}..")
    print(f"  created_unix  {h.created_unix}")
    print(f"  granularity   {h.granularity.name.lower()}")
    print(f"  label         {h.workload_label}")
    print(f"actions ({len(rec.actions)}):")
    for i, a in enumerate(rec.actions):
        iv = f"T={a.min_interval_ns}" + (
            f" raw={a.raw_interval_ns}" if a.raw_interval_ns != a.min_interval_ns else "")
        print(f"  {i:4d}  {SCHEMA_BY_CLASS[type(a)].text(a)}  [{iv}]")
    print(f"dumps ({len(rec.dumps)}):")
    for d in rec.dumps:
        print(f"  {d.dump_id:4d}  {d.gpu_va:#010x}  {d.raw_len:7d} raw  "
              f"{len(d.payload):7d} deflate  {d.origin_filter.name.lower()}")
    print(f"io ({len(rec.io_table)}):")
    for io in rec.io_table:
        print(f"  {io.role.name:6s} {io.gpu_va:#010x}+{io.len_bytes:#x}  "
              f"{io.mode.name.lower()}")
    return 0


def cmd_patch(args) -> int:
    try:
        rec = recfmt.read_file(args.recording)
        result = patch_recording(rec, _sku(args.from_sku), _sku(args.to_sku))
    except (recfmt.DecodeError, PatchError) as e:
        _err(str(e))
        return 1
    n = recfmt.write_file(args.output, result.recording)
    print(f"wrote {args.output} ({n} bytes)")
    print(f"edits: {result.recording_edits} per-recording register(s), "
          f"{result.job_edits} per-job register(s), "
          f"{result.pte_reencodes} page-table entries re-encoded")
    return 0


def cmd_bench(args) -> int:
    graph = _parse_file(parse_workload, args.workload)
    harness = RecordHarness()
    harness.magic_seed = args.seed * 131 + 7
    dev = Device(sku=_sku(args.sku), env_seed=args.seed)
    stack = GpuStack(dev, delays=args.delays, rng_seed=args.seed)
    try:
        result = record(stack, graph, harness)
    except (WorkloadError, DiscoveryError, DriverError) as e:
        _err(f"record failed: {e}")
        return 1
    rec = result.recordings[0]
    blob = recfmt.encode(rec)
    compressed_dumps = sum(len(d.payload) for d in rec.dumps)

    def one_replay(**cfg_kw):
        d = Device(sku=_sku(args.sku), env_seed=args.seed + 1)
        s = init(d, ReplayConfig(**cfg_kw))
        s.load(rec)
        import random as _random
        inp = _random.Random(args.seed).randbytes(graph.input_elems * 4)
        res = s.replay(inp)
        s.cleanup()
        if not res.ok:
            raise ReplayError(f"bench replay diverged: {res.divergence}")
        return res.vclock_ns

    with_skips = one_replay()
    no_skips = one_replay(honor_skips=False)
    with_ckpt = one_replay(checkpoint_every_jobs=1)

    print(f"workload      {graph.label()}")
    print(f"actions       {len(rec.actions)}  jobs {rec.job_count()}  "
          f"dumps {len(rec.dumps)}")
    print(f"file bytes    {len(blob)}  (dumps {result.raw_dump_bytes} raw -> "
          f"{compressed_dumps} compressed)")
    print(f"intervals     {result.skipped_intervals} skipped, "
          f"{result.kept_intervals} kept")
    print(f"replay vclock {with_skips} ns with skips")
    print(f"              {no_skips} ns without skips "
          f"(x{no_skips / max(1, with_skips):.2f})")
    print(f"              {with_ckpt} ns with per-job checkpoints "
          f"(x{with_ckpt / max(1, with_skips):.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gprr",
                                description="GPU interaction record and replay")
    sub = p.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="record a workload into a .gpr file")
    rec.add_argument("workload")
    rec.add_argument("-o", "--output", required=True)
    rec.add_argument("--sku", default="A", choices=_SKU_NAMES)
    rec.add_argument("--granularity", choices=["monolithic", "per_layer"])
    rec.add_argument("--harness")
    rec.add_argument("--delays", type=_parse_delays, default=None,
                     metavar="JIT,MGMT,JITTER")
    rec.add_argument("--seed", type=int, default=0)
    rec.set_defaults(func=cmd_record)

    rep = sub.add_parser("replay", help="replay one recording or a sequence")
    rep.add_argument("recordings", nargs="+")
    rep.add_argument("--input")
    rep.add_argument("--output")
    rep.add_argument("--sku", default="A", choices=_SKU_NAMES)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--no-skip", action="store_true",
                     help="honor raw recorded intervals instead of skips")
    rep.add_argument("--checkpoint-every", type=int, default=0, metavar="K")
    rep.add_argument("--inject-fault", type=_parse_fault, metavar="KIND[:MODE][:ARG]")
    rep.add_argument("--clock-div", type=int, default=1)
    rep.add_argument("--force", action="store_true")
    rep.set_defaults(func=cmd_replay)

    ver = sub.add_parser("verify", help="statically verify a recording")
    ver.add_argument("recording")
    ver.add_argument("--mem-budget", type=int, default=dv.MEM_BYTES)
    ver.add_argument("--map", help="register map text file")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ins = sub.add_parser("inspect", help="human-readable listing")
    ins.add_argument("recording")
    ins.set_defaults(func=cmd_inspect)

    pat = sub.add_parser("patch", help="re-target a recording to another SKU")
    pat.add_argument("recording")
    pat.add_argument("--from", dest="from_sku", required=True, choices=_SKU_NAMES)
    pat.add_argument("--to", dest="to_sku", required=True, choices=_SKU_NAMES)
    pat.add_argument("-o", "--output", required=True)
    pat.set_defaults(func=cmd_patch)

    ben = sub.add_parser("bench", help="record then compare replay modes")
    ben.add_argument("workload")
    ben.add_argument("--sku", default="A", choices=_SKU_NAMES)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--delays", type=_parse_delays,
                     default=DelayPolicy(50_000, 20_000, 5_000))
    ben.set_defaults(func=cmd_bench)
    return p


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (OSError, UsageError) as e:
        _err(str(e))
        return 2
    except recfmt.DecodeError as e:
        _err(f"decode failed: {e}")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
