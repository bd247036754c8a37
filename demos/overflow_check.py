#!/usr/bin/env python3
"""Unsigned-arithmetic checking, shaped after a length-underflow bug.

An unsigned length subtraction wraps to a huge value and feeds a copy loop.
With the one-bit unarith policy the tagged sub traps the moment it borrows,
before a single byte moves; opting out restores the silent wrap.
"""

from rvtag import PolicyViolation, build_image, make_config, run

PROGRAM = """
.globl main
.entry main
main:
    .signature "i64()"
    li a0, {payload_len}
    li a2, {header_len}
    sub a2, a0, a2 {annot}    # length = payload - header
    sltiu t2, a2, 65
    beq t2, x0, done          # defensive bound added after the incident
    la a3, src
    la a4, dst
copy:
    beq a2, x0, done
    lb t1, 0(a3)
    sb t1, 0(a4)
    addi a3, a3, 1
    addi a4, a4, 1
    addi a2, a2, -1
    j copy
done:
    li a7, 93
    ecall
.data
src:
    .word 0x11223344
    .zero 60
dst:
    .zero 64
"""

config = make_config(carrier="lui", coverage=3, policy="unarith")


def attempt(title, payload_len, header_len, annot):
    image = build_image(
        PROGRAM.format(payload_len=payload_len, header_len=header_len, annot=annot),
        config)
    dst = image.data_base + 64
    try:
        state, _, _ = run(image, mode="aware")
        copied = sum(1 for i in range(64) if state.memory.read(dst + i, 1))
        print(f"{title}: completed, length register = {state.regs[12]:#x}, "
              f"{copied} byte(s) copied")
    except PolicyViolation as violation:
        print(f"{title}: {violation.kind} at pc={violation.pc:#x} "
              f"({violation.detail}); nothing was copied")


attempt("2 - 3 checked ", 2, 3, "!unsigned")
attempt("2 - 3 opted out", 2, 3, "!unsigned !optout")
attempt("3 - 2 checked ", 3, 2, "!unsigned")
