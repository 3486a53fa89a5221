"""Measurement, metrics and the benchmark's own determinism check.

One workload per process. A run sets the workload up several times
(record, patch, encode, then decode, Device(), init, load), loads it
several more times from the encoded bytes, then drives a closed loop with
one caller: ``ReplaySession.replay`` back to back on fresh seeded inputs,
each output checked bit-exact against ``WorkloadGraph.evaluate`` outside
the timed region. A traced run instead wraps the package's entry points
(see spans.py) and reports per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from gprr import recfmt

from spans import NAME, REPLAY, STEP_KINDS, Tracer
from workloads import WORKLOADS, Workload, arm_stall, load, output_ok, replay_input, set_up

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # run only by --check; not used while tuning
ROUNDS = 7  # set-ups per end-to-end run
LOADS_PER_ROUND = 10
WARMUP_REPLAYS = 1  # excluded from replay timings, still checked
GOLDEN_KEYS = ("replay_vclock_ns", "gpr_bytes", "shader.instr",
               "replayer.checkpoint_bytes", "recorder.raw_dump_bytes")

_clock = time.perf_counter_ns

# Host-speed normalisation. On the sandbox this benchmark was written on,
# the CPU's speed drifts by up to 2x over seconds to minutes, and wall time
# and thread CPU time drift together (README.md, "Host noise"). Each timed
# operation is therefore bracketed by a fixed pure-Python loop, and its
# wall time is scaled by CALIBRATION_REF_NS over the loop's mean time
# around it: the operation's time on a host that runs the loop in
# CALIBRATION_REF_NS, the loop's median on that sandbox.
CALIBRATION_ITERS = 8000
CALIBRATION_REF_NS = 4_660_000


def _calibration_loop() -> int:
    # dict, list and integer work, like the interpreter loops under test;
    # it calls nothing in gprr, so no change to the program can move it
    table: dict[int, int] = {}
    regs = [0] * 8
    acc = 0
    for i in range(CALIBRATION_ITERS):
        k = i & 1023
        regs[i & 7] = (regs[(i + 3) & 7] + i) & 0xFFFFFFFF
        table[k] = acc
        acc = (acc + table.get((k * 7) & 1023, 0) + regs[i & 7]) & 0xFFFFFFFF
    return acc


def calibration_ns() -> int:
    t0 = _clock()
    _calibration_loop()
    return _clock() - t0


def _to_ref(ns: int, cal_before: int, cal_after: int) -> float:
    return ns * 2 * CALIBRATION_REF_NS / (cal_before + cal_after)


def _timed(fn, *args):
    """(result, wall ns, reference ns) of one call."""
    before = calibration_ns()
    t0 = _clock()
    result = fn(*args)
    ns = _clock() - t0
    return result, ns, _to_ref(ns, before, calibration_ns())


@dataclass
class Replay:
    index: int
    ok: bool
    ns: int  # wall time
    ref_ns: float  # wall time scaled to the reference host speed
    vclock_ns: int
    recoveries: int


@dataclass
class Report:
    workload: str
    seed: int
    traced: bool
    metrics: dict[str, tuple[float, str]]
    replays: list[Replay]
    notes: list[str] = field(default_factory=list)
    deterministic: bool = True  # every set-up encoded the same bytes
    golden_ok: bool = True  # on the default seed, golden.json's values repeat
    restores_per_replay: list[int] | None = None

    @property
    def attempted(self) -> int:
        return len(self.replays)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.replays)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.deterministic and self.golden_ok

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def closed_loop(w: Workload, seed: int, session, first: int, min_count: int,
                seconds: float = 0.0, tracer: Tracer | None = None) -> list[Replay]:
    """Replay back to back until ``seconds`` have passed and at least
    ``min_count`` replays ran. Replay ``i`` always gets the same input and
    stall position for a given seed. Failures are counted, never retried."""
    out: list[Replay] = []
    deadline = _clock() + int(seconds * 1e9)
    i = first
    cal = calibration_ns()  # each calibration serves the replays on both sides
    while len(out) < min_count or _clock() < deadline:
        inputs = replay_input(w, seed, i)
        if w.stall:
            arm_stall(session, seed, i)
        if tracer is not None:
            tracer.replay_id = i
        result = error = None
        t0 = _clock()
        try:
            result = session.replay(inputs)
        except Exception:  # a crashing replay is a failed replay, not a crashed benchmark
            error = traceback.format_exc()
        ns = _clock() - t0
        if tracer is not None:
            tracer.replay_id = None
        if error:
            sys.stderr.write(error)
        cal_after = calibration_ns()
        ok = result is not None and output_ok(w, inputs, result)
        out.append(Replay(i, ok, ns, _to_ref(ns, cal, cal_after),
                          result.vclock_ns if result else 0,
                          result.recovery_attempts if result else 0))
        cal = cal_after
        i += 1
    return out


def _median_ms(values_ns) -> float:
    return statistics.median(values_ns) / 1e6


def measure(w: Workload, seed: int, seconds: float, traced: bool) -> Report:
    return (_measure_traced if traced else _measure_end_to_end)(w, seed, seconds)


def _measure_end_to_end(w: Workload, seed: int, seconds: float) -> Report:
    # Set-ups, loads and replays are interleaved in rounds so that each
    # timing samples the whole run, not one stretch of a host whose speed
    # drifts. Every replay runs on the first set-up's session, so replay i
    # is the same for a given seed however the run is sliced. Round 0 is a
    # fixed amount of work (a set-up, its loads and the first
    # vclock_replays replays) and peak RSS is read after it: later rounds
    # fragment the heap by however many replays fit between their
    # set-ups, which would tie the peak to host speed.
    end = _clock() + int(seconds * 1e9)
    setups, loads, blobs, replays, first = [], [], set(), [], None
    for rnd in range(ROUNDS):
        gc.collect()
        su, wall, ref = _timed(set_up, w, seed)
        setups.append((wall, ref))
        blobs.add(su.blob)
        if first is None:
            first = su
        else:
            su.session.cleanup()
        for _ in range(LOADS_PER_ROUND):
            gc.collect()
            session, wall, ref = _timed(load, w, seed, su.blob)
            loads.append((wall, ref))
            session.cleanup()
        gc.collect()
        if rnd == 0:
            replays = closed_loop(w, seed, first.session, 0, w.vclock_replays)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            share = max(0, end - _clock()) / 1e9 / (ROUNDS - rnd)
            replays += closed_loop(w, seed, first.session, len(replays), 0, share)
    first.session.cleanup()

    timed = replays[WARMUP_REPLAYS:]
    replay_ref = [r.ref_ns for r in timed]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups) / 1e9, "s"),
        "load_ms": (_median_ms(ref for _, ref in loads), "ms"),
        "replay_ms_p50": (_median_ms(replay_ref), "ms"),
        "replay_ms_p90": (statistics.quantiles(replay_ref, n=10)[8] / 1e6, "ms"),
        "replay_vclock_ns": (statistics.median(
            r.vclock_ns for r in replays[:w.vclock_replays]), "ns"),
        "gpr_bytes": (len(first.blob), "B"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = Report(w.name, seed, False, metrics, replays, deterministic=len(blobs) == 1)
    report.notes.append(
        f"samples: setup {len(setups)}, load {len(loads)}, replay {len(timed)} "
        f"timed after {WARMUP_REPLAYS} warm-up; replay_vclock_ns over the first "
        f"{w.vclock_replays}; peak_rss_mb after round 0 (a set-up, {LOADS_PER_ROUND} "
        f"loads, {w.vclock_replays} replays)")
    replay_wall = [r.ns for r in timed]
    report.notes.append(
        f"wall time before host-speed scaling: setup_s "
        f"{statistics.median(wall for wall, _ in setups) / 1e9:.4g}, load_ms "
        f"{_median_ms(wall for wall, _ in loads):.4g}, replay_ms_p50 {_median_ms(replay_wall):.4g}, "
        f"replay_ms_p90 {statistics.quantiles(replay_wall, n=10)[8] / 1e6:.4g}; calibration "
        f"loop time / reference, median {statistics.median(r.ns / r.ref_ns for r in timed):.3f}")
    if not report.deterministic:
        report.notes.append(f"set-ups encoded {len(blobs)} different recordings")
    return report


def _measure_traced(w: Workload, seed: int, seconds: float) -> Report:
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        su = set_up(w, seed)
        traced = closed_loop(w, seed, su.session, 0, WARMUP_REPLAYS + w.traced_replays,
                             tracer=tracer)
    # the untraced baseline continues the same seeded replay sequence
    untraced = closed_loop(w, seed, su.session, len(traced), w.traced_replays, seconds)
    su.session.cleanup()
    # The warm-up replay starts a fresh session at cursor 0 and so skips the
    # reload that every later replay does; like the end-to-end timings, the
    # per-replay metrics and the overhead leave it out.
    steady = traced[WARMUP_REPLAYS:]
    metrics = layer_metrics(su, tracer, steady, untraced)
    restores = Counter(s[REPLAY] for s in tracer.spans if s[NAME] == "replayer.restore")
    report = Report(w.name, seed, True, metrics, traced + untraced,
                    restores_per_replay=[restores[r.index] for r in traced])
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{w.name}-seed{seed}.trace.json"
    n = tracer.write_chrome_trace(path)
    report.notes.append(f"trace: {n} spans over set-up and {len(traced)} replays -> {path}")
    report.notes.append(
        f"per-replay metrics over {len(steady)} traced replays after {WARMUP_REPLAYS} warm-up")
    report.notes.append(
        f"tracing overhead: traced replay_ms_p50 {_median_ms(r.ref_ns for r in steady):.3f} ms "
        f"({len(steady)} replays) / untraced {_median_ms(r.ref_ns for r in untraced):.3f} ms "
        f"({len(untraced)} replays) = {metrics['trace.overhead_ratio'][0]:.3f}")
    return report


def layer_metrics(su, tracer: Tracer, traced: list[Replay],
                  untraced: list[Replay]) -> dict[str, tuple[float, str]]:
    """Set-up metrics cover the one traced set-up; replay metrics are per
    replay, averaged over ``traced`` (a fixed count per workload, so counts
    repeat exactly for a seed)."""
    rec = recfmt.decode(su.blob)
    setup, rep = tracer.totals(), tracer.totals({r.index for r in traced})
    k = len(traced)
    ms = 1e-6
    m: dict[str, tuple[float, str]] = {}

    def per_replay(name, key="ns"):
        return rep[name][key] / k

    def replay_time_and_calls(metric, span):
        m[f"{metric}_ms"] = (per_replay(span) * ms, "ms")
        m[f"{metric}_calls"] = (per_replay(span, "calls"), "count")

    init = setup["device.init"]
    m["device.init_ms"] = (init["ns"] / init["calls"] * ms, "ms")
    for op in ("reg_write", "reg_read", "tick"):
        replay_time_and_calls(f"device.{op}", f"device.{op}")
    m["device.mem_ms"] = ((per_replay("device.mem_read") + per_replay("device.mem_write")) * ms, "ms")
    m["device.mem_bytes"] = (per_replay("device.mem_read", "value")
                             + per_replay("device.mem_write", "value"), "B")
    m["device.snapshot_ms"] = (per_replay("device.snapshot") * ms, "ms")
    m["device.restore_ms"] = (per_replay("device.restore") * ms, "ms")

    replay_time_and_calls("shader.execute", "shader.execute")
    m["shader.instr"] = (per_replay("shader.execute", "value"), "count")
    ex_ns = setup["shader.execute"]["ns"] + rep["shader.execute"]["ns"]
    ex_instr = setup["shader.execute"]["value"] + rep["shader.execute"]["value"]
    m["shader.minstr_per_s"] = (ex_instr / ex_ns * 1e3 if ex_ns else 0.0, "Minstr/s")

    run, va = setup["refstack.run_workload"], setup["refstack.mem_read_va"]
    m["refstack.run_workload_ms"] = (run["ns"] * ms, "ms")
    m["refstack.runs"] = (run["calls"], "count")
    m["refstack.mem_read_va_ms"] = (va["ns"] * ms, "ms")
    m["refstack.mem_read_va_calls"] = (va["calls"], "count")
    m["refstack.mem_read_va_bytes"] = (va["value"], "B")
    m["refstack.stack_vclock_ns"] = (su.stack_vclock_ns, "ns")

    res = su.record_result
    m["recorder.record_ms"] = (setup["recorder.record"]["ns"] * ms, "ms")
    m["recorder.self_ms"] = (setup["recorder.record"]["self_ns"] * ms, "ms")
    m["recorder.trials"] = (len(res.trials), "count")
    m["recorder.skipped_intervals"] = (res.skipped_intervals, "count")
    m["recorder.kept_intervals"] = (res.kept_intervals, "count")
    m["recorder.raw_dump_bytes"] = (res.raw_dump_bytes, "B")
    m["recorder.dump_keep_ratio"] = (res.raw_dump_bytes / va["value"], "ratio")

    m["actions.count"] = (len(rec.actions), "count")
    m["actions.jobs"] = (rec.job_count(), "count")
    m["actions.dumps"] = (len(rec.dumps), "count")

    m["recfmt.encode_ms"] = (setup["recfmt.encode"]["ns"] * ms, "ms")
    m["recfmt.decode_ms"] = (setup["recfmt.decode"]["ns"] * ms, "ms")
    m["recfmt.deflate_ms"] = (setup["recfmt.deflate"]["ns"] * ms, "ms")
    m["recfmt.deflate_calls"] = (setup["recfmt.deflate"]["calls"], "count")
    replay_time_and_calls("recfmt.inflate", "recfmt.inflate")
    m["recfmt.inflate_bytes"] = (per_replay("recfmt.inflate", "value"), "B")
    m["recfmt.dump_payload_bytes"] = (sum(len(d.payload) for d in rec.dumps), "B")

    m["verifier.verify_ms"] = (setup["verifier.verify"]["ns"] * ms, "ms")
    m["verifier.peak_gpu_mem_bytes"] = (setup["verifier.verify"]["value"], "B")

    m["replayer.load_ms"] = (setup["replayer.load"]["ns"] * ms, "ms")
    steps = 0
    for kind in STEP_KINDS.values():
        m[f"replayer.step_ms.{kind}"] = (per_replay(f"replayer.step.{kind}") * ms, "ms")
        m[f"replayer.steps.{kind}"] = (per_replay(f"replayer.step.{kind}", "calls"), "count")
        steps += rep[f"replayer.step.{kind}"]["calls"]
    m["replayer.checkpoint_ms"] = (per_replay("replayer.checkpoint") * ms, "ms")
    m["replayer.checkpoints"] = (per_replay("replayer.checkpoint", "calls"), "count")
    m["replayer.checkpoint_bytes"] = (per_replay("replayer.checkpoint", "value"), "B")
    m["replayer.restore_ms"] = (per_replay("replayer.restore") * ms, "ms")
    m["replayer.restores"] = (per_replay("replayer.restore", "calls"), "count")
    m["replayer.recovery_attempts"] = (statistics.fmean(r.recoveries for r in traced), "count")
    m["replayer.steps_per_action"] = (steps / (k * len(rec.actions)), "ratio")
    m["replayer.self_ms"] = (sum(t["self_ns"] for name, t in rep.items()
                                 if name.startswith("replayer.")) / k * ms, "ms")

    m["patcher.patch_ms"] = (setup["patcher.patch_recording"]["ns"] * ms, "ms")
    m["patcher.edits"] = (su.patch_result.register_edits if su.patch_result else 0, "count")

    m["trace.overhead_ratio"] = (statistics.median(r.ref_ns for r in traced)
                                 / statistics.median(r.ref_ns for r in untraced), "ratio")
    return m


def print_report(r: Report) -> None:
    mode = "traced" if r.traced else "end-to-end"
    print(f"{r.workload} seed {r.seed} ({mode}): {r.attempted} replays, "
          f"{r.failed} failed, fail_ratio {r.failed / r.attempted:.6g}")
    width = max(map(len, r.metrics))
    for name, (value, unit) in r.metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    recoveries = Counter(x.recoveries for x in r.replays)
    print(f"  recoveries per replay (count: replays): {dict(sorted(recoveries.items()))}")
    if r.restores_per_replay is not None:
        print(f"  checkpoint restores per traced replay: {r.restores_per_replay}")
    for line in r.notes:
        print(f"  {line}")


def golden_values(r: Report) -> dict[str, float]:
    return {k: r.metrics[k][0] for k in GOLDEN_KEYS if k in r.metrics}


def guard_golden(r: Report) -> list[str]:
    """On the default seed, compare the report's simulated and counted
    values with golden.json; any difference is a behaviour change, so it
    marks the report incorrect. Other seeds have no golden values."""
    if r.seed != DEFAULT_SEED:
        return []
    want = json.loads(GOLDEN.read_text()).get(r.workload, {})
    bad = [f"BEHAVIOUR CHANGE {r.workload} {k}: golden {want.get(k)}, got {v}"
           for k, v in golden_values(r).items() if want.get(k) != v]
    r.golden_ok = not bad
    return bad


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    report = measure(WORKLOADS[workload], seed, seconds, traced)
    bad = guard_golden(report)
    print_report(report)
    if seed == DEFAULT_SEED:
        print("  determinism guard: " + ("; ".join(bad) if bad else "matches golden.json"))
    print(report.result_line())
    return 0


def _declared_metrics(benchmark_json: Path) -> tuple[dict, dict]:
    spec = json.loads(benchmark_json.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check(seconds: float, benchmark_json: Path) -> int:
    """Every workload on the default and the held-out seed, untraced and
    traced: no failed replay, every checkpoint-workload replay restores at
    least once, metric names and units as declared, and on the default seed
    the simulated and counted values of golden.json repeat exactly. A
    mismatch there is a behaviour change, not noise."""
    problems: list[str] = []
    declared = _declared_metrics(benchmark_json)
    for w in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for traced in (False, True):
                r = measure(w, seed, seconds, traced)
                problems += guard_golden(r)
                print_report(r)
                tag = f"{w.name} seed {seed} {'traced' if traced else 'end-to-end'}"
                if r.failed:
                    problems.append(f"{tag}: {r.failed}/{r.attempted} replays failed")
                if not r.deterministic:
                    problems.append(f"{tag}: recording not deterministic")
                got = {k: u for k, (_, u) in r.metrics.items()}
                if got != declared[traced]:
                    problems.append(f"{tag}: metrics differ from {benchmark_json.name}")
                if w.stall and min(x.recoveries for x in r.replays) < 1:
                    problems.append(f"{tag}: a stalled replay did not recover")
                if w.stall and traced and min(r.restores_per_replay) < 1:
                    problems.append(f"{tag}: a replay never restored from a checkpoint")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
