"""Seeded random program generator for differential testing.

Programs mix straight-line arithmetic, bounded loops, forward branches,
direct calls, and data-buffer memory traffic, then exit through the
exit ecall.  Same seed, same text: generation is a pure function of the
supplied RNG state.
"""

from __future__ import annotations

import random

# t0 is the call scratch register, a7 the syscall number; neither is part of
# the working pool.
_POOL = ["a0", "a1", "a2", "a3", "a4", "a5", "s1", "s2", "s3", "t1", "t2", "t3"]
_BIN_OPS = ["add", "sub", "and", "or", "xor", "sltu", "slt", "mul", "addw", "subw"]
_IMM_OPS = ["addi", "andi", "ori", "xori", "slti", "sltiu", "addiw"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_STORE_LOAD = [("sd", "ld", 8), ("sw", "lw", 4), ("sb", "lbu", 1), ("sh", "lhu", 2)]

BUFFER_WORDS = 8


def generate_program(rng: random.Random) -> str:
    """One random program as assembly text."""
    helpers = rng.randint(0, 2)
    lines = []
    label_count = 0

    def fresh_label(stem):
        nonlocal label_count
        label_count += 1
        return f"{stem}{label_count}"

    def reg():
        return rng.choice(_POOL)

    def arith_line():
        kind = rng.random()
        if kind < 0.35:
            return f"    li {reg()}, {rng.randint(-2048, 2047)}"
        if kind < 0.45:
            return f"    li {reg()}, {rng.randint(-2 ** 20, 2 ** 20)}"
        if kind < 0.75:
            return f"    {rng.choice(_BIN_OPS)} {reg()}, {reg()}, {reg()}"
        if kind < 0.9:
            return f"    {rng.choice(_IMM_OPS)} {reg()}, {reg()}, {rng.randint(-512, 511)}"
        return f"    {rng.choice(['slli', 'srli', 'srai'])} {reg()}, {reg()}, {rng.randint(0, 13)}"

    def block(size):
        return [arith_line() for _ in range(size)]

    def loop():
        head = fresh_label("loop")
        counter = rng.choice(["t4", "t5", "t6"])
        body = block(rng.randint(1, 4))
        return [
            f"    li {counter}, {rng.randint(1, 9)}",
            f"{head}:",
            *body,
            f"    addi {counter}, {counter}, -1",
            f"    bne {counter}, x0, {head}",
        ]

    def forward_branch():
        skip = fresh_label("skip")
        return [
            f"    {rng.choice(_BRANCHES)} {reg()}, {reg()}, {skip}",
            *block(rng.randint(1, 3)),
            f"{skip}:",
        ]

    def memory_traffic():
        store, load, width = rng.choice(_STORE_LOAD)
        base = rng.choice(["s4", "s5"])
        offset = width * rng.randint(0, (BUFFER_WORDS * 8 - 8) // width)
        return [
            f"    la {base}, buf",
            f"    {store} {reg()}, {offset}({base})",
            f"    {load} {reg()}, {offset}({base})",
        ]

    helper_names = [f"helper{i}" for i in range(helpers)]
    for name in helper_names:
        lines.append(f".globl {name}")
        lines.append(f"{name}:")
        lines.append('    .signature "i64(i64)"')
        lines.extend(block(rng.randint(2, 6)))
        lines.append("    ret")
        lines.append("")

    lines.append(".globl main")
    lines.append(".entry main")
    lines.append("main:")
    lines.append('    .signature "i64()"')
    features = [block(rng.randint(2, 5)), loop(), forward_branch()]
    if helpers:
        features.append([f"    call {rng.choice(helper_names)}"])
    features.append(memory_traffic())
    extra = rng.randint(0, 3)
    for _ in range(extra):
        pick = rng.random()
        if pick < 0.4:
            features.append(loop())
        elif pick < 0.7:
            features.append(forward_branch())
        elif helpers and pick < 0.85:
            features.append([f"    call {rng.choice(helper_names)}"])
        else:
            features.append(memory_traffic())
    rng.shuffle(features)
    for feature in features:
        lines.extend(feature)
    if helpers:
        # ra/t0 hold text addresses after a call; clear them so final state
        # is comparable across tagged and untagged layouts.
        lines.append("    mv ra, x0")
        lines.append("    mv t0, x0")
    lines.append("    li a7, 93")
    lines.append("    ecall")
    lines.append("")
    lines.append(".data")
    lines.append("buf:")
    lines.append(f"    .zero {BUFFER_WORDS * 8}")
    lines.append("")
    return "\n".join(lines)


def generate_corpus(seed: int, count: int) -> list:
    """Deterministic list of program texts for the given seed."""
    rng = random.Random(seed)
    return [generate_program(rng) for _ in range(count)]
