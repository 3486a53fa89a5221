"""Span tracer that wraps gprr's public entry points from outside the package.

Each wrapped name is patched where callers look it up: methods on their
class (``Device.reg_write``, ``ReplaySession.step``, ...) and module globals
that other modules bound at import time (``gprr.device.execute``,
``gprr.recorder.deflate``, ``gprr.replayer.inflate``, ``gprr.replayer.verify``).
A span is (name, start ns, end ns, parent span, replay id, value); ``value``
carries a per-call count such as bytes moved or instructions run. Spans stay
in memory and are written out once, as Chrome Trace Event JSON.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from gprr import device, patcher, recfmt, recorder, replayer
from gprr.refstack import GpuStack

NAME, START, END, PARENT, REPLAY, VALUE = range(6)

STEP_KINDS = {
    "RegWrite": "write", "RegRead": "read", "RegReadWait": "poll",
    "WaitIrq": "waitirq", "MapGpuMem": "map", "UnmapGpuMem": "unmap",
    "LoadMemDump": "loaddump",
}


def _step_name(args) -> str:
    session = args[0]
    actions = session.loaded.actions if session.loaded is not None else ()
    if session.cursor < len(actions):
        return "replayer.step." + STEP_KINDS[type(actions[session.cursor]).__name__]
    return "replayer.step"


# (owner, attribute, span name or callable(args) -> name, value(args, result))
TARGETS = (
    (device.Device, "__init__", "device.init", None),
    (device.Device, "reg_write", "device.reg_write", None),
    (device.Device, "reg_read", "device.reg_read", None),
    (device.Device, "tick", "device.tick", None),
    (device.Device, "mem_read", "device.mem_read", lambda a, r: a[2]),
    (device.Device, "mem_write", "device.mem_write", lambda a, r: len(a[2])),
    (device.Device, "snapshot", "device.snapshot", None),
    (device.Device, "restore", "device.restore", None),
    (device, "execute", "shader.execute", lambda a, r: r[0]),
    (GpuStack, "run_workload", "refstack.run_workload", None),
    (GpuStack, "mem_read_va", "refstack.mem_read_va", lambda a, r: a[2]),
    (recorder, "record", "recorder.record", None),
    (recorder, "deflate", "recfmt.deflate", None),
    (recfmt, "encode", "recfmt.encode", lambda a, r: len(r)),
    (recfmt, "decode", "recfmt.decode", None),
    (recfmt, "inflate", "recfmt.inflate", lambda a, r: len(r)),
    (replayer, "inflate", "recfmt.inflate", lambda a, r: len(r)),
    (replayer, "verify", "verifier.verify", lambda a, r: r.peak_gpu_mem_bytes),
    (replayer, "init", "replayer.init", None),
    (replayer.ReplaySession, "load", "replayer.load", None),
    (replayer.ReplaySession, "replay", "replayer.replay", None),
    (replayer.ReplaySession, "step", _step_name, None),
    (replayer.ReplaySession, "checkpoint", "replayer.checkpoint",
     lambda a, r: r.byte_count),
    (replayer.ReplaySession, "restore", "replayer.restore", None),
    (patcher, "patch_recording", "patcher.patch_recording", None),
)


class Tracer:
    """Collects spans while installed. ``replay_id`` is set by the caller:
    None during set-up, the replay's index inside the closed loop."""

    def __init__(self):
        self.spans: list[list] = []
        self.replay_id: int | None = None
        self._open: list[int] = []
        self.t0 = time.perf_counter_ns()

    def _wrap(self, fn, name, value):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name(args) if callable(name) else name, clock(), 0,
                    open_[-1] if open_ else -1, self.replay_id, None]
            spans.append(span)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span[END] = clock()
            if value is not None:
                span[VALUE] = value(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, value in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, value))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, replays=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns, self ns (span minus its
        children) and summed value, over the set-up spans when ``replays``
        is None, else over the spans of the replays whose ids it holds."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0, "value": 0})
        for i, s in enumerate(self.spans):
            if s[REPLAY] not in (replays if replays is not None else (None,)):
                continue
            t = out[s[NAME]]
            dur = s[END] - s[START]
            t["calls"] += 1
            t["ns"] += dur
            t["self_ns"] += dur - child_ns[i]
            if s[VALUE] is not None:
                t["value"] += s[VALUE]
        return out

    def write_chrome_trace(self, path) -> int:
        """Chrome Trace Event format: one complete ("X") event per span,
        which Perfetto and chrome://tracing open as nested slices."""
        events = []
        for i, s in enumerate(self.spans):
            args = {"span": i, "parent": s[PARENT], "replay": s[REPLAY]}
            if s[VALUE] is not None:
                args["value"] = s[VALUE]
            events.append({
                "name": s[NAME], "cat": s[NAME].split(".", 1)[0], "ph": "X",
                "ts": (s[START] - self.t0) / 1000, "dur": (s[END] - s[START]) / 1000,
                "pid": 1, "tid": 1, "args": args,
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f,
                      separators=(",", ":"))
        return len(events)
