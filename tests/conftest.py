"""Shared fixtures: graph builders, packing helpers, record/replay drivers."""

from __future__ import annotations

import os
import random
import struct
import sys

import pytest

import gprr
from gprr.device import Device, SKU_A, SKU_B
from gprr.recorder import RecordHarness, record
from gprr.refstack import GpuStack, DelayPolicy, build_graph
from gprr.replayer import ReplayConfig, init


def i32s(vals):
    return b"".join(struct.pack("<i", v) for v in vals)


def unpack32(data):
    return list(struct.unpack(f"<{len(data) // 4}i", data))


def random_input(graph, seed):
    rng = random.Random(seed)
    return i32s([rng.randint(-(2 ** 20), 2 ** 20)
                 for _ in range(graph.input_elems)])


# The five built-in workloads the acceptance criteria run against.
def builtin_graphs():
    return {
        "vec_add": build_graph([("vec_add",)], 512),
        "scale": build_graph([("scale", 3)], 256),
        "relu": build_graph([("relu",)], 256),
        "matmul8": build_graph([("matmul", 8, 8, 8)], 128),
        "mixed3": build_graph([("vec_add",), ("scale", 3), ("relu",)], 64),
    }


@pytest.fixture(scope="session")
def graphs():
    return builtin_graphs()


def record_graph(graph, *, env_seed=7, delays=DelayPolicy(), harness=None,
                 stack_seed=0):
    dev = Device(env_seed=env_seed)
    stack = GpuStack(dev, delays=delays, rng_seed=stack_seed)
    return record(stack, graph, harness or RecordHarness())


def record_chain64(seed=1):
    """The benchmark's chain-64, recorded as its set-up records it: 63
    layers plus the staging copy make 64 jobs, on SKU-A with the stack
    delays ``gprr bench`` uses by default."""
    specs = [("scale", 3) if i % 2 == 0 else ("copy",) for i in range(63)]
    stack = GpuStack(Device(sku=SKU_A, env_seed=seed),
                     delays=DelayPolicy(50_000, 20_000, 5_000), rng_seed=seed)
    return record(stack, build_graph(specs, 16), RecordHarness(magic_seed=seed * 131 + 7))


@pytest.fixture(scope="session")
def recorded(graphs):
    """One monolithic recording per built-in workload."""
    return {name: record_graph(g).recordings[0] for name, g in graphs.items()}


def gprr_calls(fn, *args):
    """``fn(*args)`` and the count of Python calls it made into gprr code:
    the package's modules and the code they compile at run time
    (``<string>``), as ``sys.setprofile`` reports them."""
    pkg = os.path.dirname(gprr.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            name = frame.f_code.co_filename
            if name.startswith(pkg) or name == "<string>":
                calls += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(outer)
    return result, calls


def replay_once(rec, inputs, *, sku=SKU_A, env_seed=1, config=None):
    dev = Device(sku=sku, env_seed=env_seed)
    session = init(dev, config or ReplayConfig())
    try:
        session.load(rec)
        return session.replay(inputs)
    finally:
        session.cleanup()
