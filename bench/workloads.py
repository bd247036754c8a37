"""Seeded inputs for the benchmark, each with a plain-Python model of the
final a0 so results are checked against code that is not rvtag's.

The seed changes constants, data and call order only. The instruction
sequence of every generated program has the same shape for every seed, so
fetch counts and overheads stay comparable from seed to seed.
"""

from __future__ import annotations

import random

MASK20 = 0xFFFFF


def source_lines(text: str) -> int:
    return len(text.splitlines())


# ---------------------------------------------------------------------------
# kernel: one hot loop, emulator-bound

KERNEL_TABLE_WORDS = 8


def kernel(rng: random.Random, iterations: int):
    """Loop over a data table through `la`, `ld`/`sd`, `!unsigned` adds and a
    computed `.calltype` call. Returns (source, final a0)."""
    mul = rng.randrange(3, 1024, 2)
    step_add = rng.randrange(1, 2048)
    step_xor = rng.randrange(0, 2048)
    start = rng.randrange(1, 1 << 20)
    table = [rng.randrange(0, 1 << 20) for _ in range(KERNEL_TABLE_WORDS)]
    source = f"""\
.globl main
.entry main
main:
    .signature "i64()"
    li a0, {start}
    li s3, {iterations}
    li s4, {mul}
    li s5, {MASK20}
    la s2, step
loop:
    andi t1, s3, {KERNEL_TABLE_WORDS - 1}
    slli t1, t1, 3
    la t2, table
    add t2, t2, t1
    ld t3, 0(t2)
    add a0, a0, t3 !unsigned
    mul a0, a0, s4
    srli a5, a0, 7
    xor a0, a0, a5
    and a0, a0, s5
    sd a0, 0(t2)
    .calltype "i64(i64)"
    jalr ra, s2, 0
    addi s3, s3, -1
    bne s3, x0, loop
    mv ra, x0
    mv s2, x0
    li a7, 93
    ecall
.globl step
step:
    .signature "i64(i64)"
    addi a0, a0, {step_add} !unsigned
    xori a0, a0, {step_xor}
    ret
.data
table:
""" + "".join(f"    .dword {value}\n" for value in table)

    acc = start
    for counter in range(iterations, 0, -1):
        index = counter & (KERNEL_TABLE_WORDS - 1)
        acc = (acc + table[index]) * mul
        acc = (acc ^ (acc >> 7)) & MASK20
        table[index] = acc
        acc = (acc + step_add) ^ step_xor
    return source, acc


# ---------------------------------------------------------------------------
# large_unit: one big link unit, instrument-bound

LARGE_CALLS_PER_FUNCTION = 5
LARGE_STORE_EVERY = 5
LARGE_DATA_WORDS = 64


def large_unit(rng: random.Random, functions: int):
    """`functions` leaf functions and one straight-line driver that calls
    each of them LARGE_CALLS_PER_FUNCTION times directly, storing a0 to data
    every LARGE_STORE_EVERY calls. Returns (source, final a0)."""
    params = [(rng.randrange(1, 2048), rng.randrange(0, 2048),
               rng.randrange(1, 6), rng.randrange(3, 10))
              for _ in range(functions)]
    order = [i for i in range(functions) for _ in range(LARGE_CALLS_PER_FUNCTION)]
    rng.shuffle(order)
    start = rng.randrange(1, 1 << 20)

    lines = []
    for i, (add, xor, shl, shr) in enumerate(params):
        lines += [
            f".globl f{i}",
            f"f{i}:",
            '    .signature "i64(i64)"',
            f"    addi a0, a0, {add} !unsigned",
            f"    xori a0, a0, {xor}",
            f"    slli t1, a0, {shl}",
            "    add a0, a0, t1 !unsigned",
            f"    srli t1, a0, {shr}",
            "    xor a0, a0, t1",
            "    and a0, a0, s5",
            "    ret",
            "",
        ]
    lines += [
        ".globl main",
        ".entry main",
        "main:",
        '    .signature "i64()"',
        f"    li a0, {start}",
        f"    li s5, {MASK20}",
    ]
    acc = start
    for site, callee in enumerate(order):
        lines.append(f"    call f{callee}")
        add, xor, shl, shr = params[callee]
        acc = ((acc + add) ^ xor) * (1 + (1 << shl))
        acc = (acc ^ (acc >> shr)) & MASK20
        if site % LARGE_STORE_EVERY == LARGE_STORE_EVERY - 1:
            slot = (site // LARGE_STORE_EVERY) % LARGE_DATA_WORDS
            lines += ["    la s1, results", f"    sd a0, {8 * slot}(s1)"]
    lines += [
        "    mv ra, x0",
        "    mv t0, x0",
        "    li a7, 93",
        "    ecall",
        "",
        ".data",
        "results:",
        f"    .zero {8 * LARGE_DATA_WORDS}",
        "",
    ]
    return "\n".join(lines), acc
