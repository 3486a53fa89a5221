"""Shader ISA: assembler, decoder, interpreter semantics, loop compiler."""

import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gprr import shader
from gprr.shader import Asm, ShaderFault, execute, OP_HALT


class Mem:
    """Word-addressable backing store for the VM callbacks."""

    def __init__(self, init=None):
        self.words = dict(init or {})

    def load(self, addr):
        return self.words.get(addr, 0)

    def store(self, addr, value):
        self.words[addr] = value


def pack(words):
    """A shader's bytes, as the device fetches them."""
    return struct.pack(f"<{len(words)}I", *words)


def run(words, params=(), mem=None, budget=1 << 20):
    mem = mem or Mem()
    n, halted = execute(pack(words), list(params), mem.load, mem.store, budget)
    return n, halted, mem


def test_halt_alone():
    a = Asm()
    a.halt()
    n, halted, _ = run(a.assemble())
    assert (n, halted) == (1, True)


def test_ldi_and_store():
    a = Asm()
    a.ldi(0, 0x100)
    a.ldi(1, 0xDEADBEEF)
    a.st(0, 1)
    a.halt()
    n, halted, mem = run(a.assemble())
    assert halted and mem.words[0x100] == 0xDEADBEEF
    assert n == 4  # ldi counts once despite its two words


def test_arithmetic_wraps_mod_2_32():
    a = Asm()
    a.ldi(1, 0xFFFFFFFF)
    a.ldi(2, 2)
    a.add(3, 1, 2)
    a.mul(4, 1, 2)
    a.sub(5, 2, 1)
    a.ldi(0, 0)
    a.st(0, 3)
    a.ldi(0, 4)
    a.st(0, 4)
    a.ldi(0, 8)
    a.st(0, 5)
    a.halt()
    _, _, mem = run(a.assemble())
    assert mem.words[0] == 1            # -1 + 2
    assert mem.words[4] == 0xFFFFFFFE   # -1 * 2
    assert mem.words[8] == 3            # 2 - (-1)


def test_max_compares_signed():
    a = Asm()
    a.ldi(1, 0xFFFFFFFF)  # -1
    a.ldi(2, 0)
    a.max_(3, 1, 2)
    a.ldi(0, 0)
    a.st(0, 3)
    a.halt()
    _, _, mem = run(a.assemble())
    assert mem.words[0] == 0


def test_addi_sign_extends():
    a = Asm()
    a.ldi(1, 10)
    a.addi(1, 1, -3)
    a.ldi(0, 0)
    a.st(0, 1)
    a.halt()
    _, _, mem = run(a.assemble())
    assert mem.words[0] == 7


def test_bnz_loop_counts():
    a = Asm()
    a.ldi(1, 5)    # counter
    a.ldi(2, 0)    # accumulator
    a.label("loop")
    a.addi(2, 2, 3)
    a.addi(1, 1, -1)
    a.bnz(1, "loop")
    a.ldi(0, 0)
    a.st(0, 2)
    a.halt()
    n, halted, mem = run(a.assemble())
    assert halted and mem.words[0] == 15
    assert n == 2 + 3 * 5 + 3


def test_load_reads_memory():
    a = Asm()
    a.ldi(0, 0x40)
    a.ld(1, 0)
    a.ldi(0, 0x80)
    a.st(0, 1)
    a.halt()
    _, _, mem = run(a.assemble(), mem=Mem({0x40: 123}))
    assert mem.words[0x80] == 123


def test_budget_exhaustion_reports_not_halted():
    a = Asm()
    a.ldi(1, 1)
    a.label("spin")
    a.bnz(1, "spin")
    n, halted, _ = run(a.assemble(), budget=100)
    assert not halted and n == 100


def test_running_off_the_end_is_not_halted():
    a = Asm()
    a.ldi(1, 1)
    _, halted, _ = run(a.assemble())
    assert not halted


def test_unknown_opcode_faults():
    with pytest.raises(ShaderFault):
        run([0xFF << 24])


def test_truncated_ldi_faults():
    from gprr.shader import OP_LDI
    with pytest.raises(ShaderFault):
        run([OP_LDI << 24])


def test_register_field_above_r7_faults():
    from gprr.shader import OP_ADD, OP_LDI, OP_ST
    for word in ((OP_LDI << 24) | (9 << 20),
                 (OP_ADD << 24) | (1 << 20) | (2 << 16) | (8 << 12),
                 (OP_ST << 24) | (3 << 20) | (15 << 16)):
        with pytest.raises(ShaderFault):
            run([word, 5, OP_HALT])


def test_branch_out_of_range_faults():
    from gprr.shader import OP_BNZ
    word = (OP_BNZ << 24) | (1 << 16) | (50 & 0xFFFF)
    with pytest.raises(ShaderFault):
        run([word])


def test_jump_into_immediate_faults():
    a = Asm()
    a.ldi(1, 1)
    a.bnz(1, "bad")
    a.label("bad")
    # hand-build: branch back into the ldi immediate slot
    words = a.assemble()
    from gprr.shader import OP_BNZ
    words[2] = (OP_BNZ << 24) | (1 << 16) | (-2 & 0xFFFF)  # target = word 1
    with pytest.raises(ShaderFault):
        run(words)


def test_params_seed_registers():
    a = Asm()
    a.st(0, 1)
    a.halt()
    _, _, mem = run(a.assemble(), params=[0x200, 42])
    assert mem.words[0x200] == 42


def test_decode_cache_is_bounded_and_hits_decode_identically():
    n = shader.DECODE_CACHE_SIZE
    programs = []
    for i in range(n + 1):
        a = Asm()
        a.ldi(1, i)
        a.st(0, 1)
        a.halt()
        programs.append(a.assemble())
    shader._decode_cache.clear()
    for words in programs:
        run(words)
    # keyed by the bytes run, least recently used first
    assert list(shader._decode_cache) == [pack(words) for words in programs[1:]]
    hit = shader._decode(pack(programs[-1]))
    shader._decode_cache.clear()
    assert shader._decode(pack(programs[-1])) == hit
    assert run(programs[-1])[2].words == {0: n}


def test_an_empty_or_ragged_shader():
    assert execute(b"", [], Mem().load, Mem().store, 100) == (0, False)
    with pytest.raises(ShaderFault):
        execute(pack([OP_HALT])[:3], [], Mem().load, Mem().store, 100)


def compiled_loops(words):
    """(MemPath, head) -> instructions per iteration of each loop compiled
    for the shader ``words``: the entries a path enters them from."""
    return {(path, pc): entry[2][1]
            for path, entries in shader._decode(pack(words))[1].items()
            for pc, entry in enumerate(entries)
            if entry is not None and entry[0] == shader.OP_LOOP}


def test_loops_compile_when_their_back_edge_is_first_taken():
    def program(trips):
        a = Asm()
        a.ldi(1, trips)
        a.label("loop")
        a.addi(2, 2, 3)
        a.addi(1, 1, -1)
        a.bnz(1, "loop")
        a.ldi(0, 0)
        a.st(0, 2)
        a.halt()
        return a.assemble()

    shader._decode_cache.clear()
    once = program(1)
    assert run(once)[2].words == {0: 3}
    assert shader._decode(pack(once))[1] == {}  # the back-edge was never taken
    many = program(5)
    assert run(many)[:2] == (1 + 3 * 5 + 3, True)
    # kept by its head, after the two-word LDI, where a warm run enters it
    assert compiled_loops(many) == {(shader.CALLBACK_PATH, 2): 3}
    assert run(many)[:2] == (1 + 3 * 5 + 3, True)


def test_shader_without_back_edge_compiles_nothing():
    a = Asm()
    for i in range(50):
        a.ldi(1, i); a.ldi(0, 4 * i); a.st(0, 1)
    a.halt()
    words = a.assemble()
    run(words)
    assert shader._decode(pack(words))[1] == {}


class Boom(Exception):
    pass


class LoggedMem:
    """Memory callbacks that log every call and raise on call ``fail_at``."""

    def __init__(self, fail_at):
        self.words = {}
        self.calls = []
        self.fail_at = fail_at

    def _call(self, *call):
        self.calls.append(call)
        if len(self.calls) == self.fail_at:
            raise Boom

    def load(self, addr):
        self._call("ld", addr)
        return self.words.get(addr, addr * 0x9E3779B1 & 0xFFFFFFFF)

    def store(self, addr, value):
        self._call("st", addr, value)
        self.words[addr] = value


reg = st.integers(0, 7)
plain_op = st.one_of(
    st.tuples(st.just("ld"), reg, reg),
    st.tuples(st.just("st"), reg, reg),
    st.tuples(st.sampled_from(("add", "sub", "mul", "max_")), reg, reg, reg),
    st.tuples(st.just("addi"), reg, reg, st.integers(-0x8000, 0x7FFF)),
    st.tuples(st.just("ldi"), reg, st.integers(0, 0xFFFFFFFF)),
)
# a loop: trips (counted down in r7), a straight-line body, and sometimes
# one op that breaks the straight line (a HALT, or a BNZ forward over the
# next op) or an entry by a BNZ from before the loop into the body
rarely = st.none() | st.none() | st.none()
loop_spec = st.tuples(
    st.integers(1, 12), st.lists(plain_op, max_size=8),
    rarely | st.tuples(st.integers(0, 8), st.just(("halt",)) | st.tuples(st.just("skip"), reg)),
    rarely | st.tuples(st.integers(0, 8), reg))


def loop_program(prologue, loops):
    a = Asm()
    for r, v in prologue:
        a.ldi(r, v)
    for k, (trips, body, breaker, entry) in enumerate(loops):
        body = list(body)
        if breaker is not None:
            body.insert(min(breaker[0], len(body)), breaker[1])
        if entry is not None:
            a.bnz(entry[1], f"enter{k}")
        a.ldi(7, trips)
        a.label(f"loop{k}")
        for j, op in enumerate(body + [None]):
            if entry is not None and j == min(entry[0], len(body)):
                a.label(f"enter{k}")
            if j and body[j - 1][0] == "skip":
                a.label(f"skip{k}")
            if op is None:
                break
            if op[0] == "skip":
                a.bnz(op[1], f"skip{k}")
            elif op[0] == "halt":
                a.halt()
            else:
                getattr(a, op[0])(*op[1:])
        a.addi(7, 7, -1)
        a.bnz(7, f"loop{k}")
    for r in range(8):  # show every register to the store callback
        a.st(0, r)
    a.halt()
    return a.assemble()


def outcome(words, params, budget, fail_at, cold=True):
    if cold:
        shader._decode_cache.clear()
    mem = LoggedMem(fail_at)
    try:
        result = execute(pack(words), params, mem.load, mem.store, budget)
    except Boom:
        result = Boom
    return result, mem.calls


def warm_outcome(words, params, budget, fail_at):
    """``outcome`` of a second run, after one that compiled the loops whose
    back-edges it took within 1,000 steps."""
    outcome(words, params, 1000, 0)
    return outcome(words, params, budget, fail_at, cold=False)


@settings(max_examples=500, deadline=None)
@given(prologue=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 0xFFFFFFFF)),
                         max_size=4),
       loops=st.lists(loop_spec, min_size=1, max_size=2),
       params=st.lists(st.integers(0, 0xFFFFFFFF), max_size=8),
       budget=st.integers(0, 400),
       fail_at=st.integers(0, 60))
def test_compiled_loops_match_the_interpreter(prologue, loops, params, budget, fail_at):
    words = loop_program(prologue, loops)
    compiled = outcome(words, params, budget, fail_at)
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        interpreted = outcome(words, params, budget, fail_at)
    assert compiled == interpreted


@pytest.mark.parametrize("budget", range(20))
def test_every_budget_through_four_iterations(budget):
    # 1 prologue step and 4 per iteration: budgets end before the first
    # back-edge, on one, or inside an iteration, compiled or interpreted
    a = Asm()
    a.ldi(1, 100)
    a.label("loop")
    a.ld(2, 1); a.st(1, 2); a.addi(1, 1, -1)
    a.bnz(1, "loop")
    a.halt()
    words = a.assemble()
    compiled = outcome(words, [], budget, 0)
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        assert outcome(words, [], budget, 0) == compiled
    assert compiled[0] == (budget, False)


@settings(max_examples=500, deadline=None)
@given(prologue=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 0xFFFFFFFF)),
                         max_size=4),
       loops=st.lists(loop_spec, min_size=1, max_size=2),
       params=st.lists(st.integers(0, 0xFFFFFFFF), max_size=8),
       budget=st.integers(0, 400),
       fail_at=st.integers(0, 60))
def test_warm_compiled_loops_match_the_interpreter(prologue, loops, params, budget, fail_at):
    # the second run enters each compiled loop at its head
    words = loop_program(prologue, loops)
    warm = warm_outcome(words, params, budget, fail_at)
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        interpreted = outcome(words, params, budget, fail_at)
    assert warm == interpreted


@pytest.mark.parametrize("budget", range(20))
def test_every_budget_through_four_warm_iterations(budget):
    # as above, with the loop compiled by an earlier run: budgets end
    # before its head, on it, or inside an iteration
    a = Asm()
    a.ldi(1, 100)
    a.label("loop")
    a.ld(2, 1); a.st(1, 2); a.addi(1, 1, -1)
    a.bnz(1, "loop")
    a.halt()
    words = a.assemble()
    warm = warm_outcome(words, [], budget, 0)
    assert compiled_loops(words) == {(shader.CALLBACK_PATH, 2): 4}
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        assert outcome(words, [], budget, 0) == warm
    assert warm[0] == (budget, False)


def test_back_edge_over_a_halt_stays_interpreted():
    # entered past its HALT, the loop's body is not straight-line code
    a = Asm()
    a.ldi(7, 3); a.ldi(1, 1)
    a.bnz(1, "enter")
    a.label("loop")
    a.halt()
    a.label("enter")
    a.addi(7, 7, -1)
    a.bnz(7, "loop")
    a.halt()
    words = a.assemble()
    assert run(words)[:2] == (2 + 1 + 2 + 1, True)
    assert compiled_loops(words) == {}
    assert run(words)[:2] == (2 + 1 + 2 + 1, True)


def test_an_outer_back_edge_does_not_hide_the_inner_loop():
    # both back-edges branch to "head": the outer one, taken first, closes
    # no self-loop; the inner one compiles when it is first taken
    a = Asm()
    a.ldi(7, 1); a.ldi(6, 3); a.ldi(2, 0)
    a.label("head")
    a.addi(2, 2, 1); a.addi(7, 7, -1)
    a.bnz(7, "head")
    a.ldi(7, 4); a.addi(6, 6, -1)
    a.bnz(6, "head")
    a.ldi(0, 0); a.st(0, 2)
    a.halt()
    words = a.assemble()
    shader._decode_cache.clear()
    assert run(words)[2].words == {0: 1 + 4 + 4}
    assert compiled_loops(words) == {(shader.CALLBACK_PATH, 6): 3}
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        interpreted = outcome(words, [], 1 << 20, 0)
    assert outcome(words, [], 1 << 20, 0) == interpreted
    assert warm_outcome(words, [], 1 << 20, 0) == interpreted


# Affine bodies over value registers r4..r7: the address registers r0..r2
# point at disjoint regions and step by 4 after the body, r3 counts down.
value = st.integers(4, 7)
affine_op = st.one_of(
    st.tuples(st.just("ld"), value, st.integers(0, 2)),
    st.tuples(st.just("st"), st.integers(0, 2), value),
    st.tuples(st.sampled_from(("add", "sub", "mul", "max_")), value, value, value),
    st.tuples(st.just("addi"), value, value, st.integers(-0x8000, 0x7FFF)),
    st.tuples(st.just("ldi"), value, st.integers(0, 0xFFFFFFFF)),
)


def region_bulk(mem):
    """A ``run_bulk`` over ``mem`` that always runs the loop. Right for
    loops whose memory ops each keep to their own region."""
    def run_bulk(plan, regs, n):
        ops, body = plan
        starts = [regs[r] for _, r in ops]

        def load(i):
            return b"".join((mem.load(starts[i] + 4 * j) & 0xFFFFFFFF).to_bytes(4, "little")
                            for j in range(n))

        def store(i, data):
            for j in range(n):
                mem.store(starts[i] + 4 * j, int.from_bytes(data[4 * j:4 * j + 4], "little"))

        body(regs, n, load, store)
        return True
    return run_bulk


@settings(max_examples=300, deadline=None)
@given(body=st.lists(affine_op, min_size=1, max_size=10),
       values=st.lists(st.integers(0, 0xFFFFFFFF), min_size=4, max_size=4),
       trips=st.integers(1, 40))
def test_bulk_form_matches_the_interpreter(body, values, trips):
    a = Asm()
    for r in range(3):
        a.ldi(r, 0x10000 * (r + 1))
    a.ldi(3, trips)
    for r, v in zip(range(4, 8), values):
        a.ldi(r, v)
    a.label("loop")
    for op in body:
        getattr(a, op[0])(*op[1:])
    for r in sorted({op[2] if op[0] == "ld" else op[1] for op in body if op[0] in ("ld", "st")}):
        a.addi(r, r, 4)
    a.addi(3, 3, -1)
    a.bnz(3, "loop")
    a.ldi(3, 0x100)  # every register to memory
    for r in (0, 1, 2, 4, 5, 6, 7):
        a.st(3, r); a.addi(3, 3, 4)
    a.halt()
    words = a.assemble()
    shader._decode_cache.clear()
    bulk = LoggedMem(0)
    with mock.patch.object(shader, "BULK_MIN_ITERATIONS", 1):
        got = execute(pack(words), [], bulk.load, bulk.store, 1 << 20,
                      run_bulk=region_bulk(bulk))
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        interpreted = LoggedMem(0)
        assert execute(pack(words), [], interpreted.load, interpreted.store, 1 << 20) == got
    assert interpreted.words == bulk.words


EDGE_WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
# One affine body per op the bulk form evaluates over lane integers, after
# r4 and r5 load from r0 and r1 and before r6 stores through r2; r7 holds
# the invariant 0xFFFFFFFF.
LANE_BODIES = {
    # the sum goes on into a multiply, where a lane left above 32 bits spills
    "add": [("add", 6, 4, 5), ("mul", 6, 6, 7)],
    "sub": [("sub", 6, 4, 5)],
    "addi": [("addi", 6, 4, -1), ("addi", 6, 6, -0x8000)],
    "mul": [("mul", 6, 4, 7), ("mul", 6, 7, 6)],
    "max": [("max_", 6, 4, 5), ("max_", 6, 7, 6)],
    "ldi": [("ldi", 6, 0x80000000), ("sub", 6, 6, 4)],
    "invariant store": [("ldi", 6, 0x12345678)],
    "copy": [("ld", 6, 0)],  # stored as loaded
}


@pytest.mark.parametrize("n", (1, 2, 32, 33, 2003))
@pytest.mark.parametrize("body", LANE_BODIES)
def test_each_lane_op_matches_the_interpreter_on_edge_words(body, n):
    # the first iteration runs before the back-edge offers the n others in
    # bulk; over them, r4 and r5 load every pair of edge words
    init = {}
    for j in range(n + 1):
        init[0x10000 + 4 * j] = EDGE_WORDS[j % 5]
        init[0x20000 + 4 * j] = EDGE_WORDS[j // 5 % 5]
    a = Asm()
    a.ldi(0, 0x10000); a.ldi(1, 0x20000); a.ldi(2, 0x30000); a.ldi(3, n + 1)
    a.ldi(7, 0xFFFFFFFF)
    a.label("loop")
    a.ld(4, 0); a.ld(5, 1)
    for op in LANE_BODIES[body]:
        getattr(a, op[0])(*op[1:])
    a.st(2, 6)
    a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, 4); a.addi(3, 3, -1)
    a.bnz(3, "loop")
    a.ldi(3, 0x100)  # every register to memory
    for r in (0, 1, 2, 4, 5, 6, 7):
        a.st(3, r); a.addi(3, 3, 4)
    a.halt()
    words = a.assemble()
    shader._decode_cache.clear()
    bulk, runs = Mem(init), []
    run_bulk = region_bulk(bulk)
    with mock.patch.object(shader, "BULK_MIN_ITERATIONS", 1):
        got = execute(pack(words), [], bulk.load, bulk.store, 1 << 20,
                      run_bulk=lambda *args: runs.append(args[2]) or run_bulk(*args))
    with mock.patch.object(shader, "_compile_loop", lambda *args: None):
        interpreted = Mem(init)
        assert execute(pack(words), [], interpreted.load, interpreted.store, 1 << 20) == got
    assert runs == [n]
    assert interpreted.words == bulk.words


def test_affine_loops_have_a_bulk_form():
    def bulk_form(build):
        a = Asm()
        a.label("loop")
        build(a)
        a.addi(3, 3, -1)
        a.bnz(3, "loop")
        a.halt()
        decoded = shader._decode(pack(a.assemble()))[0]
        return shader._compile_loop(decoded, 0, len(decoded) - 2, shader.CALLBACK_PATH)[2]

    def vec_add(a):
        a.ld(4, 0); a.ld(5, 1); a.add(6, 4, 5); a.st(2, 6)
        a.addi(0, 0, 4); a.addi(1, 1, 4); a.addi(2, 2, 4)
    assert bulk_form(vec_add)[0] == ((False, 0), (False, 1), (True, 2))

    def invariant_store(a):
        a.st(0, 5); a.ldi(6, 9); a.mul(6, 6, 5); a.st(1, 6); a.addi(0, 0, 4); a.addi(1, 1, 4)
    assert bulk_form(invariant_store)[0] == ((True, 0), (True, 1))

    def copy(a):
        a.ld(4, 0); a.st(1, 4); a.addi(0, 0, 4); a.addi(1, 1, 4)
    ops, body = bulk_form(copy)
    assert ops == ((False, 0), (True, 1))
    data, stored, regs = bytes(range(12)), [], [0] * 8
    body(regs, 3, lambda i: data, lambda i, d: stored.append(d))
    assert stored[0] is data  # a value no ALU op reads is stored as loaded
    assert regs[4] == 0x0B0A0908 and regs[0] == regs[1] == 12
    for build in (
        lambda a: (a.st(0, 4), a.ld(4, 0), a.addi(0, 0, 4)),  # value read before written
        lambda a: (a.ld(4, 0), a.addi(0, 0, 8)),  # stride 8
        lambda a: (a.ld(4, 0), a.addi(0, 0, 4), a.addi(0, 0, 4)),  # stepped twice
        lambda a: (a.addi(0, 0, 4), a.ld(4, 0)),  # used after its step
        lambda a: (a.ld(4, 0), a.add(5, 4, 0), a.addi(0, 0, 4)),  # address read as a value
        lambda a: (a.ld(4, 0), a.addi(0, 0, 4), a.addi(3, 3, -1)),  # counter stepped twice
        lambda a: (a.ld(0, 0), a.addi(0, 0, 4)),  # address loaded
        lambda a: a.ld(4, 0),  # address never stepped
        # a product of two values that differ per iteration
        lambda a: (a.ld(4, 0), a.ld(5, 1), a.mul(6, 4, 5), a.addi(0, 0, 4), a.addi(1, 1, 4)),
        lambda a: (a.ld(4, 0), a.mul(6, 4, 4), a.addi(0, 0, 4)),
    ):
        assert bulk_form(build) is None
