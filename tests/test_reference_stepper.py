"""An independent reference stepper, and the emulator checked against it.

The stepper is written from the RV64 base ISA, not from the emulator's
bodies: it decodes one word per step with codec.decode and keeps memory as
three plain bytearrays, with rvtag's map rules (README): loads from text
are allowed, a store to text or any access not wholly inside one segment is
a MemFault, and a fetch of anything but a whole text word is a
BadInstruction.  In aware mode under policy none, carrier words are fetched
and not retired.  Seeded programs with accesses at every segment edge, x0
destinations, computed jumps and each ecall form run in both, cold and with
promotion forced, and must end alike.  The one allowed divergence is the
misaligned jump that README documents.
"""

import collections
import functools
import random

import pytest
from test_emulator import REFERENCE, forced, regions_made  # noqa: F401 (fixtures)

from rvtag import codec, tagplan
from rvtag.emulator import BadInstruction, Emulator, LimitExceeded, PolicyViolation
from rvtag.pipeline import build_image
from rvtag.tagplan import DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE, make_config

MASK = (1 << 64) - 1
STACK_BASE = STACK_TOP - STACK_SIZE
N3 = make_config(carrier="lui", coverage=3)
LOAD_SIZES = {"lb": 1, "lh": 2, "lw": 4, "ld": 8, "lbu": 1, "lhu": 2, "lwu": 4}
STORE_SIZES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


class Stop(Exception):
    """Ends a stepped run: args[0] is the run's error, as _outcome gives it."""


def step(image, aware: bool, budget: int = 5000) -> dict:
    """The outcome of running image from its entry, one word at a time.  A
    jump to a target that is not a multiple of 4 raises RV64's
    instruction-address-misaligned exception at the jump, which then does
    not retire: its error is ("Misaligned", jump pc, target, rd)."""
    text, data, stack = bytes(image.text), bytearray(image.data), bytearray(STACK_SIZE)
    segments = ((TEXT_BASE, text), (DATA_BASE, data), (STACK_BASE, stack))
    groups = tagplan.carrier_groups(image.tag_regions, image.text_end) if aware else ()
    carriers = {carrier for _, carrier, _ in groups}
    regs = [0] * 32
    regs[2] = STACK_TOP
    pc, retired, fetched_carriers = image.entry, 0, 0
    stdout, exit_code, stop_reason, error = bytearray(), 0, "", None

    def segment(addr, size, store):
        """(segment, offset) of an access wholly inside one segment."""
        for base, memory in segments:
            if base <= addr and addr + size <= base + len(memory):
                if store and memory is text:
                    break
                return memory, addr - base
        raise Stop(("PolicyViolation", "MemFault", pc))

    try:
        while not stop_reason:
            if retired + fetched_carriers >= budget:
                raise Stop(("LimitExceeded", None, None))
            if pc % 4 or not TEXT_BASE <= pc < TEXT_BASE + len(text):
                raise Stop(("BadInstruction", None, pc))
            if pc in carriers:
                fetched_carriers += 1
                pc += 4
                continue
            offset = pc - TEXT_BASE
            try:
                insn = codec.decode(int.from_bytes(text[offset:offset + 4], "little"))
            except codec.BadEncoding:
                raise Stop(("BadInstruction", None, pc)) from None
            m, rd, imm = insn.mnemonic, insn.rd, insn.imm
            a, b = regs[insn.rs1], regs[insn.rs2]
            next_pc, value = pc + 4, None
            if m == "lui" or m == "auipc":  # the immediate is the upper 20 bits, sign-extended
                value = codec._sext(imm << 12, 32) + (pc if m == "auipc" else 0)
            elif m in codec.BRANCH_MNEMONICS:
                next_pc = pc + imm if REFERENCE[m](a, b, imm) else pc + 4
            elif m in REFERENCE:
                value = REFERENCE[m](a, b, imm)
            elif m == "jal" or m == "jalr":
                next_pc = pc + imm if m == "jal" else (a + imm) & MASK & ~1
                value = pc + 4
            elif m in LOAD_SIZES:
                size = LOAD_SIZES[m]
                memory, offset = segment((a + imm) & MASK, size, False)
                value = int.from_bytes(memory[offset:offset + size], "little",
                                       signed=not m.endswith("u") and m != "ld")
            elif m in STORE_SIZES:
                size = STORE_SIZES[m]
                memory, offset = segment((a + imm) & MASK, size, True)
                memory[offset:offset + size] = (b & (1 << 8 * size) - 1).to_bytes(size, "little")
            elif m == "ecall" and regs[17] == 64:  # write the byte in a0
                stdout.append(regs[10] & 0xFF)
            elif m == "ecall":  # exit with a0 if a7 is 93, else a plain stop
                exit_code, stop_reason = regs[10], "exit" if regs[17] == 93 else "ecall"
            else:
                stop_reason = "ebreak"
            next_pc &= MASK
            if next_pc % 4:
                raise Stop(("Misaligned", pc, next_pc, rd))
            if rd and value is not None:
                regs[rd] = value & MASK
            retired += 1
            if not stop_reason:
                pc = next_pc
    except Stop as stop:
        error = stop.args[0]
    return {"error": error, "regs": regs, "data": data, "stack": stack, "exit_code": exit_code,
            "stop_reason": stop_reason, "stdout": stdout, "retired": retired,
            "carriers": fetched_carriers}


def _outcome(image, mode: str) -> dict:
    """What the emulator gives, in step's terms."""
    machine = Emulator(image, mode=mode, max_insns=5000)
    error = None
    try:
        machine.run()
    except PolicyViolation as exc:
        error = ("PolicyViolation", exc.kind, exc.pc)
    except BadInstruction as exc:
        error = ("BadInstruction", None, exc.pc)
    except LimitExceeded:
        error = ("LimitExceeded", None, None)
    state, counters = machine.state, machine.counters
    return {"error": error, "regs": state.regs, "data": machine.memory.data,
            "stack": machine.memory.stack, "exit_code": state.exit_code,
            "stop_reason": state.stop_reason, "stdout": state.stdout,
            "retired": counters.retired, "carriers": counters.tag_fetches}


# -- the programs -------------------------------------------------------------
# main sets the loop count in s11 and jumps to f0; f0..fN are functions, each
# ending in a jump to the next; the last one loops back to f0 while s11 is
# not zero, then ends.  Control flow only goes forward within an iteration,
# so every program ends.  s2, s3 and s4 build addresses; random ops write
# only the pool, x0 among them.

ITERATIONS = 6  # forced promotion runs a block in a region from its fourth entry
POOL = ["zero", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5", "t3", "t4",
        "t5", "t6"]
RRR = ["add", "sub", "xor", "or", "and", "mul", "slt", "sltu", "sll", "srl", "sra", "addw",
       "subw"]
RRI = ["addi", "xori", "ori", "andi", "slti", "sltiu", "addiw"]
SHIFTS = ["slli", "srli", "srai"]
KINDS = {"li": 3, "rrr": 3, "rri": 3, "shift": 1, "upper": 1, "access": 6, "walk": 1,
         "jump": 1, "branch": 1, "write": 1, "halt": 1}


def _access(rng, kind, data_len) -> list:
    """A load or store of random width: at or across a segment edge, or, for
    a walk, one byte nearer to an edge each iteration, so that it may cross
    in a late one."""
    mnemonic = rng.choice([*LOAD_SIZES, *STORE_SIZES])
    size = LOAD_SIZES.get(mnemonic) or STORE_SIZES[mnemonic]
    offset = rng.randrange(-16, 17)
    data_end = DATA_BASE + data_len
    # (first address past the edge, the side it fits on: -1 below, 1 above)
    edges = [(data_end - size + 1, -1), (STACK_TOP - size + 1, -1), (DATA_BASE - 1, 1),
             (STACK_BASE - 1, 1), (TEXT_BASE - size + 1, 1)]
    if kind == "walk":
        edge, side = rng.choice(edges)
        addr = [f"li s2, {edge - side * rng.randrange(3) - offset}",
                f"{'add' if side > 0 else 'sub'} s2, s2, s11"]
    else:
        fits = [DATA_BASE, data_end - size, DATA_BASE + rng.randrange(data_len - size + 1),
                STACK_TOP - size, STACK_BASE, TEXT_BASE + 4 * rng.randrange(8)]
        edge = rng.choice(fits if rng.random() < 0.8 else [0, -1, *(e for e, _ in edges)])
        addr = [f"li s2, {edge - offset}"]
    return addr + [f"{mnemonic} {rng.choice(['zero', *POOL])}, {offset}(s2)"]


def _chunk(rng, later, data_len) -> list:
    """The lines of one random step of a function; `later` names the
    functions after it."""
    reg = lambda: rng.choice(POOL)  # noqa: E731
    kind = rng.choices(list(KINDS), list(KINDS.values()))[0]
    if kind == "li":
        value = rng.choice([0, 1, -1, 2047, -2048, 0x7FFFFFFF, -0x80000000,
                            rng.randrange(-1 << 31, 1 << 31)])
        return [f"li {reg()}, {value}"]
    if kind == "rrr":
        return [f"{rng.choice(RRR)} {reg()}, {reg()}, {reg()}"]
    if kind == "rri":
        return [f"{rng.choice(RRI)} {reg()}, {reg()}, {rng.randrange(-2048, 2048)}"]
    if kind == "shift":
        return [f"{rng.choice(SHIFTS)} {reg()}, {reg()}, {rng.randrange(64)}"]
    if kind == "upper":
        return [f"{rng.choice(['lui', 'auipc'])} {reg()}, {rng.randrange(1 << 20)}"]
    if kind in ("access", "walk"):
        return _access(rng, kind, data_len)
    if kind == "jump":  # la plus an offset, into text or data, maybe +2 in the last iteration
        target = rng.choice(later) if later and rng.random() < 0.9 else "buf"
        lines = [f"la s3, {target}", f"addi s3, s3, {rng.choice([0, 0, 0, 4, 8, 2])}"]
        if rng.random() < 0.5:
            lines += ["slti s4, s11, 2", "slli s4, s4, 1", "add s3, s3, s4"]
        link, imm = rng.choice(["ra", *POOL]), rng.choice([0] * 6 + [1, 2, 3])
        return lines + [f"jalr {link}, s3, {imm}"]
    if kind == "branch" and later:
        return [f"{rng.choice(sorted(codec.BRANCH_MNEMONICS))} {reg()}, {reg()}, {later[0]}"]
    if kind == "write":
        return ["li a7, 64", "ecall"]
    if kind == "halt" and rng.random() < 0.3:
        return rng.choice([["li a7, 93", "ecall"], [f"li a7, {rng.randrange(100)}", "ecall"],
                           ["ebreak"]])
    return [f"addi {reg()}, zero, {rng.randrange(-2048, 2048)}"]


def program(seed: int) -> str:
    """A seeded program of the shape above."""
    rng = random.Random(seed)
    names = [f"f{k}" for k in range(rng.randrange(2, 6))]
    data_len = rng.choice([8, 16, 40, 64])
    lines = [f".globl {name}" for name in names]
    lines += ["main:", f"    li s11, {ITERATIONS}"]
    lines += [f"    li {rng.choice(POOL)}, {rng.randrange(-1 << 31, 1 << 31)}" for _ in range(4)]
    lines += [f"    j {names[0]}"]
    for k, name in enumerate(names):
        lines.append(f"{name}:")
        for _ in range(rng.randrange(1, 7)):
            lines += [f"    {line}" for line in _chunk(rng, names[k + 1:], data_len)]
        lines.append(f"    j {names[k + 1]}" if k + 1 < len(names) else "    addi s11, s11, -1")
    lines += [f"    bne s11, zero, {names[0]}"]
    lines += [f"    {line}" for line in rng.choice([
        ["li a7, 93", "ecall"], ["li a7, 3", "ecall"], ["ebreak"], [], ["la s3, buf", "jr s3"]])]
    lines += [".data", "buf:", f"    .zero {data_len}"]
    return "\n".join(lines) + "\n"


SEEDS = range(400)


@functools.cache
def _images(seed):
    """(untagged, tagged) images of program(seed)."""
    source = program(seed)
    return build_image(source, N3, tagged=False), build_image(source, N3, tagged=True)


@pytest.mark.parametrize("promotion", ["cold", "forced"])
def test_the_emulator_ends_every_program_as_the_reference_stepper(request, promotion):
    regions = request.getfixturevalue("forced") if promotion == "forced" else None
    seen = collections.Counter()
    for seed in SEEDS:
        for image, mode in zip(_images(seed), ("compat", "aware")):
            expected = step(image, aware=mode == "aware")
            error = expected["error"]
            seen[error[0] if error else expected["stop_reason"]] += 1
            if error and error[0] == "Misaligned":
                # README's one deviation: the jump retires and writes its
                # link register, and the fault names the target
                _, jump, target, rd = error
                expected.update(error=("BadInstruction", None, target),
                                retired=expected["retired"] + 1)
                if rd:
                    expected["regs"][rd] = jump + 4
            assert _outcome(image, mode) == expected, (seed, mode, program(seed))
    assert set(seen) == {"exit", "ecall", "ebreak", "PolicyViolation", "BadInstruction",
                         "Misaligned", "LimitExceeded"}
    assert regions is None or regions
