"""Micro shader ISA: assembler, decoder and interpreter.

Stands in for proprietary GPU instruction streams. 8 general 32-bit
registers, 32-bit instruction words, two-word LDI. Arithmetic wraps
mod 2^32; MAX compares signed; BNZ offsets are in words relative to the
instruction after the branch.

Word encoding (fields unused by an op are zero):

    [31:24] opcode   [23:20] rd   [19:16] ra   [15:12] rb
    ADDI/BNZ carry a signed 16-bit immediate in [15:0];
    LDI takes the full next word as its immediate.

The interpreter runs every shader, decoded once for each distinct string
of instruction bytes it is given. A *self-loop*, a backward BNZ whose
body up to the branch is straight-line code, is compiled to a Python
function the first time its back-edge is taken (the translation-block
idea of QEMU's TCG). From then on the interpreter enters the compiled
loop whenever it reaches the loop's head, on that run and on every later
run of the same bytes, so a warm shader runs even its first iteration
compiled. The compiled loop runs whole iterations while the step budget
allows and hands everything else back to the interpreter, so counts,
faults and callback order are the interpreter's.

An *affine* self-loop, whose loads and stores each walk an address
register up by 4 per iteration and which carries no value from one
iteration to the next, also gets a bulk form: its body evaluated over
all n iterations at once, each value that differs per iteration held as
one Python int of its n words packed 32 bits apart, as loaded, so each
vector op is a few big-int operations. When at least
``BULK_MIN_ITERATIONS`` iterations are left as the loop is entered (at
its head, the counter's value) and they fit the budget, the caller's
``run_bulk`` may run them all at once. The device does so after
the page walks those iterations would make, in their order, and falls
back to the compiled loop when an access is unaligned, a stored word is
partial, a load span holds a buffered word, or two accesses share a word
other than in place. Counts, faults, TLB contents, virtual time and
outputs stay the interpreter's.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

U32 = 0xFFFFFFFF

OP_HALT = 0x00
OP_LDI = 0x01
OP_LD = 0x02
OP_ST = 0x03
OP_ADD = 0x04
OP_SUB = 0x05
OP_MUL = 0x06
OP_MAX = 0x07
OP_ADDI = 0x08
OP_BNZ = 0x09

class ShaderFault(Exception):
    """Undecodable instruction stream (unknown opcode, register above r7,
    truncated LDI, branch out of range)."""


def _signed16(v: int) -> int:
    v &= 0xFFFF
    return v - 0x10000 if v & 0x8000 else v


def _signed32(v: int) -> int:
    v &= U32
    return v - 0x100000000 if v & 0x80000000 else v


class Asm:
    """Tiny assembler with label fixups for loops."""

    def __init__(self):
        self.words: list[int] = []
        self._fixups: list[tuple[int, str]] = []  # (word index of branch, label)
        self._labels: dict[str, int] = {}

    def label(self, name: str) -> None:
        self._labels[name] = len(self.words)

    def _emit(self, op, rd=0, ra=0, rb=0, imm16=None):
        w = (op << 24) | ((rd & 0xF) << 20) | ((ra & 0xF) << 16)
        if imm16 is not None:
            w |= imm16 & 0xFFFF
        else:
            w |= (rb & 0xF) << 12
        self.words.append(w)

    def halt(self):
        self._emit(OP_HALT)

    def ldi(self, rd, imm32):
        self._emit(OP_LDI, rd)
        self.words.append(imm32 & U32)

    def ld(self, rd, ra):
        self._emit(OP_LD, rd, ra)

    def st(self, ra, rs):
        # address register in the ra field, source value in the rd field
        self._emit(OP_ST, rs, ra)

    def add(self, rd, ra, rb):
        self._emit(OP_ADD, rd, ra, rb)

    def sub(self, rd, ra, rb):
        self._emit(OP_SUB, rd, ra, rb)

    def mul(self, rd, ra, rb):
        self._emit(OP_MUL, rd, ra, rb)

    def max_(self, rd, ra, rb):
        self._emit(OP_MAX, rd, ra, rb)

    def addi(self, rd, ra, imm16):
        if not -0x8000 <= imm16 <= 0x7FFF:
            raise ValueError("addi immediate out of range")
        self._emit(OP_ADDI, rd, ra, imm16=imm16)

    def bnz(self, ra, label: str):
        self._fixups.append((len(self.words), label))
        self._emit(OP_BNZ, 0, ra, imm16=0)

    def assemble(self) -> list[int]:
        words = list(self.words)
        for at, label in self._fixups:
            target = self._labels[label]
            off = target - (at + 1)
            if not -0x8000 <= off <= 0x7FFF:
                raise ValueError("branch offset out of range")
            words[at] = (words[at] & 0xFFFF0000) | (off & 0xFFFF)
        return words


# Only r0..r7 exist: per opcode, the top bit of each 4-bit register field
# it uses, which must be clear.
_RD, _RA, _RB = 1 << 23, 1 << 19, 1 << 15
_REG_FIELD_TOPS = {
    OP_LDI: _RD, OP_LD: _RD | _RA, OP_ST: _RD | _RA, OP_ADDI: _RD | _RA,
    OP_BNZ: _RA, OP_ADD: _RD | _RA | _RB, OP_SUB: _RD | _RA | _RB,
    OP_MUL: _RD | _RA | _RB, OP_MAX: _RD | _RA | _RB,
}

@dataclass(frozen=True, eq=False)
class MemPath:
    """How compiled loops do LD and ST. ``ld`` and ``st`` are statement
    templates: ``{d}``, ``{a}`` and ``{s}`` stand for the destination,
    address and source registers, which hold values in [0, 2^32). The
    statements may call ``load_word`` and ``store_word`` and use ``names``,
    whose values ``execute`` takes as ``bound``, in the same order.
    Compiled loops are kept by the MemPath object itself (it hashes by
    identity), so finding them hashes none of its strings."""

    ld: str
    st: str
    names: tuple[str, ...] = ()


# every access calls the memory callbacks, as the interpreter does
CALLBACK_PATH = MemPath(ld="{d} = load_word({a}) & 0xFFFFFFFF",
                        st="store_word({a}, {s})")

# Decoded shaders by their bytes, least recently used first: the decoded
# entries and, by MemPath, the entries that path's compiled loops are
# entered from (``_decode``). A job chain reuses a handful of shaders; the
# bound keeps a long-lived process that sees many distinct ones from
# growing without limit.
DECODE_CACHE_SIZE = 32
# An affine self-loop with at least this many iterations left as its head
# enters it runs them in bulk: all of them on a warm run, those after the
# first on the run whose back-edge compiles it. Measured per shader run in
# scale, copy and vec_add jobs (median of 21 alternating rounds), the bulk
# path ties the compiled loop at about 24 iterations left (vec_add near 21)
# and is 10-20% faster at 32; the floor keeps loops near the tie, such as
# chain-64's, compiled.
BULK_MIN_ITERATIONS = 32
# The op of an entry that enters a compiled self-loop at its head:
# (OP_LOOP, counter register, compiled loop, pc after its BNZ, head).
OP_LOOP = -1
_decode_cache: OrderedDict[bytes, tuple[list[tuple], dict]] = OrderedDict()


def _decode(code: bytes) -> tuple[list[tuple], dict]:
    """Decode the little-endian instruction words in ``code`` to one entry
    per word index. Each entry is (op, a, b, c, next_pc); LDI's second
    word gets a None placeholder, and a backward BNZ has c = 1, as the
    back-edge of a loop that may compile.

    Returns the entries and the shader's loops: by MemPath, a copy of the
    entries as that path runs them, in which the head of each loop compiled
    for it is an ``OP_LOOP`` entry and each back-edge it has taken is a BNZ
    with c = 0. A path runs on the entries themselves until it first takes
    a back-edge. Words are unpacked only when ``code`` is not cached."""
    cached = _decode_cache.get(code)
    if cached is not None:
        _decode_cache.move_to_end(code)
        return cached
    if len(code) & 3:
        raise ShaderFault(f"{len(code)} bytes is not a whole number of words")
    words = struct.unpack(f"<{len(code) >> 2}I", code)
    decoded: list[tuple | None] = [None] * len(words)
    pc = 0
    n = len(words)
    while pc < n:
        w = words[pc]
        op = w >> 24
        rd, ra, rb = (w >> 20) & 0xF, (w >> 16) & 0xF, (w >> 12) & 0xF
        if w & _REG_FIELD_TOPS.get(op, 0):
            raise ShaderFault(f"register field above r7 at word {pc}")
        if op == OP_LDI:
            if pc + 1 >= n:
                raise ShaderFault(f"truncated ldi at word {pc}")
            decoded[pc] = (OP_LDI, rd, words[pc + 1], 0, pc + 2)
            pc += 2
        elif op in (OP_ADDI, OP_BNZ):
            imm = _signed16(w)
            if op == OP_BNZ:
                target = pc + 1 + imm
                if not 0 <= target <= n:
                    raise ShaderFault(f"branch target {target} out of range at word {pc}")
                decoded[pc] = (OP_BNZ, ra, target, int(target <= pc), pc + 1)
            else:
                decoded[pc] = (OP_ADDI, rd, ra, imm, pc + 1)
            pc += 1
        elif op in (OP_HALT, OP_LD, OP_ST, OP_ADD, OP_SUB, OP_MUL, OP_MAX):
            decoded[pc] = (op, rd, ra, rb, pc + 1)
            pc += 1
        else:
            raise ShaderFault(f"unknown opcode {op:#x} at word {pc}")
    entry = _decode_cache[code] = (decoded, {})
    if len(_decode_cache) > DECODE_CACHE_SIZE:
        _decode_cache.popitem(last=False)
    return entry


# Each ALU op as an expression over its operand fields: {b} and {c} are
# register expressions or, for ADDI's c and LDI's b, the immediate. The
# compiled loop is generated from this table, and so is each value of a
# bulk form that is the same in every iteration (``_LANE_ALU`` for the
# others).
_ALU = {
    OP_ADD: "({b} + {c}) & 0xFFFFFFFF",
    OP_SUB: "({b} - {c}) & 0xFFFFFFFF",
    OP_MUL: "({b} * {c}) & 0xFFFFFFFF",
    # signed order of two u32 values is the order with the sign bit flipped
    OP_MAX: "{b} if ({b} ^ 0x80000000) >= ({c} ^ 0x80000000) else {c}",
    OP_ADDI: "({b} + {c}) & 0xFFFFFFFF",
    OP_LDI: "{b}",
}
_REGS = "r0, r1, r2, r3, r4, r5, r6, r7"


def _alu_expr(op: int, b: int, c: int, reg) -> str:
    """ALU ``op``'s expression, each register k it reads written ``reg(k)``."""
    if op == OP_LDI:
        return _ALU[op].format(b=b)
    return _ALU[op].format(b=reg(b), c=c if op == OP_ADDI else reg(c))


def _compile_loop(decoded: list, head: int, end: int, path: MemPath):
    """Compile the loop from word ``head`` to the BNZ at ``end``. Returns
    (function, instructions per iteration, bulk form), or None when the
    body is not straight-line code. The function takes (regs, count,
    iterations, load_word, store_word, *bound), runs at most ``iterations``
    whole iterations, updates ``regs`` and returns (count, pc to resume at).
    The bulk form is ``_bulk_loop``'s."""
    ops = []
    pc = head
    while pc != end:
        entry = decoded[pc] if pc < end else None
        if entry is None or entry[0] in (OP_HALT, OP_BNZ):
            return None
        op, a, b, c, pc = entry
        ops.append((op, a, b, c))
    body = []
    for op, a, b, c in ops:
        if op == OP_LD:
            body.append(path.ld.format(d=f"r{a}", a=f"r{b}"))
        elif op == OP_ST:
            body.append(path.st.format(a=f"r{b}", s=f"r{a}"))
        else:
            body.append(f"r{a} = " + _alu_expr(op, b, c, "r{}".format))
    steps = len(body) + 1
    _, cond, _, _, exit_pc = decoded[end]
    lines = [f"def loop(regs, count, iterations, load_word, store_word, "
             f"{''.join(n + ', ' for n in path.names)}):",
             f"    {_REGS} = regs",
             f"    pc = {head}",
             "    for i in range(1, iterations + 1):",
             *("        " + line for stmt in body for line in stmt.splitlines()),
             f"        if not r{cond}:",
             f"            pc = {exit_pc}",
             "            break",
             f"    regs[:] = {_REGS}",
             f"    return count + i * {steps}, pc"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["loop"], steps, _bulk_loop(ops, cond)


# Constants by n for the bulk forms, over ints of n words packed 32 bits
# apart: ONES has a 1 at the bottom of each word, LO the low 31 bits of
# each and HI bit 31, EVEN all of every even word.
@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int, int]:
    ones = int.from_bytes(b"\x01\0\0\0" * n, "little")
    return ones, ones * 0x7FFFFFFF, ones << 31, int.from_bytes(
        b"\xff\xff\xff\xff\0\0\0\0" * ((n + 1) // 2), "little")


# Each ALU op over packed words, as a statement that sets {v}: {b} and {c}
# hold n words, except MUL's {c}, one value for every word. ADD adds the
# low 31 bits of each word, which cannot carry out of it, then sets bit 31
# from both bit 31s; SUB likewise takes the low 31 bits from 2^31 plus
# {b}'s. MUL multiplies the even and the odd words, each alone in 64 bits.
_LANE_ALU = {
    OP_ADD: "{v} = (({b} & LO) + ({c} & LO)) ^ (({b} ^ {c}) & HI)",
    OP_SUB: "{v} = (({b} | HI) - ({c} & LO)) ^ (({b} ^ {c} ^ HI) & HI)",
    OP_MUL: "{v} = ({b} & EVEN) * {c} & EVEN | (({b} >> 32 & EVEN) * {c} & EVEN) << 32",
    # bit 31 of SUB's {b} - {c} before its last xor is 1 where the low 31
    # bits of {b} are at least {c}'s; where the sign bits differ, {c}'s
    # decides. Spread over each word, it selects {b}'s words.
    OP_MAX: "t = ({b} | HI) - ({c} & LO); s = {b} ^ {c}; sel = ((t ^ (t ^ {c}) & s) & HI) >> 31; "
            "{v} = {c} ^ s & sel * 0xFFFFFFFF; del t, s, sel",
}
_LANE_ALU[OP_ADDI] = _LANE_ALU[OP_ADD]


def _bulk_loop(ops: list[tuple], cond: int):
    """The bulk form of a self-loop whose body is ``ops``, (op, a, b, c)
    per instruction before its BNZ on ``cond``, or None unless the loop is
    affine: each LD/ST address register and the counter are stepped once,
    by ``ADDI r, r, 4`` after the register's every use as an address and by
    ``ADDI cond, cond, -1``, and read nowhere else; no other register the
    body writes is read before it is written in the same iteration. A MUL
    of two values that differ per iteration gets no bulk form either.

    Returns (memory ops, function): (is store, address register) per LD
    and ST in body order, and a function of (regs, n, load, store) that
    runs the next n >= 1 iterations. ``load(i)`` returns the n words
    memory op i loads, as 4n little-endian bytes, ``store(i, data)`` takes
    the n words it stores in the same form, and ``regs`` ends as after the
    n-th iteration. Inside, a loaded value stays bytes until an ALU op
    reads it as one int, word j in bits 32j to 32j + 31 (``_LANE_ALU``)."""
    addrs = {b for op, _, b, _ in ops if op in (OP_LD, OP_ST)}
    dests = {a for op, a, _, _ in ops if op != OP_ST}
    if cond in addrs:
        return None
    stepped: set[int] = set()
    written: set[int] = set()
    mem = []
    # register -> [the name of its loaded bytes or None, of its int or None]
    vec: dict[int, list] = {}
    stmts = []  # (statement, the names it reads or sets)

    def lane(r):  # the int of register r's words, or of its one value in each
        if r not in vec:
            return f"(r{r} * ONES)"
        data, v = vec[r]
        if v is None:  # loaded bytes, first read by an ALU op
            v = vec[r][1] = "v" + data[1:]
            stmts.append((f"{v} = int.from_bytes({data}, 'little')", {data, v}))
        return v

    for p, (op, a, b, c) in enumerate(ops):
        if op == OP_ADDI and a == b and a not in stepped and (
                c == 4 and a in addrs or c == -1 and a == cond):
            stepped.add(a)
            continue
        reads = ((a,) if op == OP_ST else () if op in (OP_LD, OP_LDI)
                 else (b,) if op == OP_ADDI else (b, c))
        if any(r in addrs or r == cond or r in dests and r not in written for r in reads):
            return None
        if op == OP_ST:
            if b in stepped:
                return None
            data, v = vec.get(a, (None, None))
            if data:  # stored as loaded
                stmts.append((f"store({len(mem)}, {data})", {data}))
            elif v:
                stmts.append((f"store({len(mem)}, {v}.to_bytes(4 * n, 'little'))", {v}))
            else:  # an invariant or a value computed from them
                stmts.append((f"store({len(mem)}, r{a}.to_bytes(4, 'little') * n)", set()))
            mem.append((True, b))
            continue
        if a in addrs or a == cond or op == OP_LD and b in stepped:
            return None
        written.add(a)
        if op == OP_LD:
            stmts.append((f"d{p} = load({len(mem)})", {f"d{p}"}))
            mem.append((False, b))
            vec[a] = [f"d{p}", None]
            continue
        per_iteration = [r for r in reads if r in vec]
        if not per_iteration:  # from invariants and immediates only: one value
            stmts.append((f"r{a} = " + _alu_expr(op, b, c, "r{}".format), set()))
            vec.pop(a, None)
            continue
        if op == OP_MUL:
            if len(per_iteration) > 1:
                return None
            x = per_iteration[0]
            stmt = _LANE_ALU[op].format(v=f"v{p}", b=lane(x), c=f"r{c if x == b else b}")
        else:
            stmt = _LANE_ALU[op].format(
                v=f"v{p}", b=lane(b), c=f"({c & U32} * ONES)" if op == OP_ADDI else lane(c))
        stmts.append((stmt, {f"v{p}", *(vec[r][1] for r in per_iteration)}))
        vec[a] = [None, f"v{p}"]
    if stepped != addrs | {cond}:
        return None
    # a register that ends differing per iteration keeps the last word
    for r, (data, v) in vec.items():
        stmts.append((f"r{r} = int.from_bytes({data}[-4:], 'little')" if data else
                      f"r{r} = {v} >> 32 * (n - 1) & 0xFFFFFFFF", {data or v}))
    # each value is dropped after its last use, so they do not all live at
    # once
    lines, seen = [], set()
    for stmt, uses in reversed(stmts):
        dead = sorted(uses - seen)
        seen |= uses
        lines.append(f"    {stmt}" + (f"; del {', '.join(dead)}" if dead else ""))
    namespace = {"_lanes": _lanes}
    exec("\n".join([
        "def bulk(regs, n, load, store):",
        f"    {_REGS} = regs",
        "    ONES, LO, HI, EVEN = _lanes(n)",
        *reversed(lines),
        *(f"    r{r} = (r{r} + 4 * n) & 0xFFFFFFFF" for r in sorted(addrs)),
        f"    r{cond} = 0",
        f"    regs[:] = {_REGS}"]), namespace)
    return tuple(mem), namespace["bulk"]


def _enter_compiled(decoded: list, loops: dict, path: MemPath, head: int,
                    end: int) -> list:
    """Compile the loop from word ``head`` to the back-edge at ``end`` for
    ``path``, once: the back-edge becomes a plain BNZ in ``path``'s entries
    and, when the loop compiles, its head an ``OP_LOOP`` entry. Returns
    those entries."""
    entries = loops.get(path)
    if entries is None:
        entries = loops[path] = list(decoded)
    _, cond, _, _, exit_pc = decoded[end]
    entries[end] = (OP_BNZ, cond, head, 0, exit_pc)
    loop = _compile_loop(decoded, head, end, path)
    if loop is not None:
        entries[head] = (OP_LOOP, cond, loop, exit_pc, head)
    return entries


def execute(code: bytes, params: list[int], load_word, store_word,
            budget: int, path: MemPath = CALLBACK_PATH,
            bound: tuple = (), run_bulk=None) -> tuple[int, bool]:
    """Run the shader whose instruction words are ``code``, little-endian.
    Registers r0..r7 start from the 8-entry param block.

    Returns (dynamic instruction count, halted). ``halted`` is False when
    the step budget ran out. Memory callbacks may raise; the fault
    propagates with the partial count lost, matching a faulted job.
    A self-loop is compiled at its first taken back-edge (``_decode`` keeps
    it with the shader's bytes); from then on, whenever the interpreter
    reaches the loop's head with a whole iteration's budget left, the loop
    runs compiled, and the interpreter goes on at the pc it returns.
    Compiled loops do memory as ``path`` says, with ``bound`` as the values
    of its names. ``run_bulk(bulk form, regs, n)``, when given, is offered
    the n iterations left of an affine self-loop (``_bulk_loop``), the
    counter's value at the head, when n is at least ``BULK_MIN_ITERATIONS``
    and fits the budget; it runs them all, or returns False to leave them
    to the compiled loop.
    """
    decoded, loops = _decode(code)
    entries = loops.get(path, decoded)
    regs = [p & U32 for p in params[:8]] + [0] * max(0, 8 - len(params))
    pc = 0
    count = 0
    n = len(decoded)
    while count < budget:
        if pc >= n:
            return count, False  # ran off the end without HALT
        entry = entries[pc]
        if entry is None:
            raise ShaderFault(f"jump into immediate word at {pc}")
        op, a, b, c, nxt = entry
        count += 1
        if op == OP_HALT:
            return count, True
        if op == OP_LD:
            regs[a] = load_word(regs[b]) & U32
        elif op == OP_ST:
            store_word(regs[b], regs[a])
        elif op == OP_ADD:
            regs[a] = (regs[b] + regs[c]) & U32
        elif op == OP_SUB:
            regs[a] = (regs[b] - regs[c]) & U32
        elif op == OP_MUL:
            regs[a] = (regs[b] * regs[c]) & U32
        elif op == OP_MAX:
            regs[a] = (regs[b] if _signed32(regs[b]) >= _signed32(regs[c]) else regs[c]) & U32
        elif op == OP_ADDI:
            regs[a] = (regs[b] + c) & U32
        elif op == OP_BNZ:
            if regs[a] != 0:
                if c:  # a back-edge this path takes for the first time
                    entries = _enter_compiled(decoded, loops, path, b, pc)
                pc = b
                continue
        elif op == OP_LDI:
            regs[a] = b
        elif op == OP_LOOP:  # a compiled loop's head, not yet counted
            count -= 1
            fn, steps, bulk = b
            iterations = (budget - count) // steps
            if not iterations:
                # the budget ends inside this body, short of its BNZ:
                # interpret the rest
                entries = decoded
                continue
            left = regs[a]
            if (BULK_MIN_ITERATIONS <= left <= iterations and bulk is not None
                    and run_bulk is not None and run_bulk(bulk, regs, left)):
                count += left * steps
                pc = c
            else:
                count, pc = fn(regs, count, iterations, load_word, store_word, *bound)
            continue
        pc = nxt
    return count, False
