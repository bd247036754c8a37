#!/usr/bin/env python3
"""Coverage tracking with counting labels and a branch map.

The coverage policy (coverage 7, two-bit tags) plants a zero-valued counting
label at each basic-block leader.  The tag-aware emulator increments the
label's immediate in place every time it executes one, and records a
{branch pc: {next pc: count}} map for tagged control flow.
"""

import json

from rvtag import build_image, make_config, run

PROGRAM = """
.globl block_fn
block_fn:
    addi a0, a0, 1        # entry block
    li t1, 3
    beq a0, t1, merge     # taken on the third visit
    addi a1, a1, 1        # fall-through block
merge:
    addi a2, a2, 1        # join block
    ret
.globl main
.entry main
main:
    li t2, 3
drive:
    call block_fn
    addi t2, t2, -1
    bne t2, x0, drive
    li a7, 93
    ecall
"""

config = make_config(carrier="lui", coverage=7, policy="coverage")
image = build_image(PROGRAM, config)
state, counters, policy = run(image, mode="aware")

print("block_fn is entered three times: jumps once, falls through twice\n")

print("counting labels after the run (value lives in the lui immediate):")
for addr, kind in image.label_addrs:
    count = (state.memory.read(addr, 4) >> 12) & 0xFFFFF
    print(f"  {addr:#x}  lui x0, {count}")

print("\nbranch map {branch pc: {next pc: count}}:")
payload = {
    hex(pc): {hex(target): n for target, n in sorted(targets.items())}
    for pc, targets in sorted(policy.bcf.items())
}
print(json.dumps(payload, indent=2))

print(f"\nlabels executed: {counters.labels_seen}, "
      f"carriers fetched: {counters.tag_fetches}")
