"""Shader ISA: assembler, decoder, interpreter semantics."""

import pytest

from gprr.shader import (Asm, ShaderFault, disassemble, execute,
                         OP_HALT)


class Mem:
    """Word-addressable backing store for the VM callbacks."""

    def __init__(self, init=None):
        self.words = dict(init or {})

    def load(self, addr):
        return self.words.get(addr, 0)

    def store(self, addr, value):
        self.words[addr] = value


def run(words, params=(), mem=None, budget=1 << 20):
    mem = mem or Mem()
    n, halted = execute(words, list(params), mem.load, mem.store, budget)
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


def test_disassemble_covers_all_ops():
    a = Asm()
    a.ldi(1, 7)
    a.ld(2, 1)
    a.st(1, 2)
    a.add(3, 1, 2)
    a.sub(3, 1, 2)
    a.mul(3, 1, 2)
    a.max_(3, 1, 2)
    a.addi(3, 3, -1)
    a.bnz(3, "end")
    a.label("end")
    a.halt()
    text = "\n".join(disassemble(a.assemble()))
    for op in ("ldi", "ld", "st", "add", "sub", "mul", "max", "addi", "bnz", "halt"):
        assert op in text


def test_decode_cache_is_bounded_and_hits_decode_identically():
    from gprr import shader
    n = shader.DECODE_CACHE_SIZE
    programs = []
    for i in range(n + 1):
        a = Asm()
        a.ldi(1, i)
        a.st(0, 1)
        a.halt()
        programs.append(a.assemble())
    for words in programs:
        run(words)
    assert len(shader._decode_cache) <= n
    hit = shader._decode(programs[-1])
    shader._decode_cache.clear()
    assert shader._decode(programs[-1]) == hit
    assert run(programs[-1])[2].words == {0: n}
