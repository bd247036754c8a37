#!/usr/bin/env python3
"""The tagging API, piece by piece.

Tags are assigned to the assembled program model before carriers are
emitted: set/get per instruction, first-set-wins propagation across
pseudo-expansions, and free-form metadata labels.  At the end the tagged
words are packed and pulled back apart to show the bit layout.
"""

from rvtag import (
    TagCarrier,
    assemble,
    codec,
    emitlink,
    get_tag,
    insert_label,
    link,
    make_config,
    propagate_lineage,
    set_tag,
)

config = make_config(carrier="lui", coverage=3, policy="cfi")

program = assemble(
    "main:\n"
    "    call helper\n"      # expands to auipc+jalr under one lineage
    "    addi a0, a0, 1\n"
    "    ecall\n"
    ".globl helper\n"
    "helper:\n"
    "    ret\n"
)

print("after assembly, every instruction reports the default tag:")
for index, tagged in enumerate(program.fragments[0].insns):
    name = config.name_of(get_tag(program, (0, index), config))
    print(f"  insn {index}: {tagged.insn.mnemonic:6} tag={name} "
          f"lineage={tagged.lineage}")

print("\ntag the call's auipc half CFL; propagation covers the whole expansion:")
set_tag(program, (0, 0), "CFL", config)
propagate_lineage(program)
for index in range(3):
    print(f"  insn {index}: tag={config.name_of(get_tag(program, (0, index), config))}")

print("\ninsert a metadata label carrying payload 0x5A3 at the fragment start:")
insert_label(program, (0, 0), 0x5A3, config.value_of("CFL"))
first = program.fragments[0].insns[0]
print(f"  insns[0] = {first.insn.mnemonic} x0, {first.insn.imm:#x}  "
      f"(is_label={first.is_label})")
print(f"  relocations shifted: "
      f"{sorted((r.kind, r.offset) for r in program.fragments[0].relocations)}")

image = link(program, config, tagged=True)
print(f"\nlinked: {len(image.text)} text bytes, "
      f"{len(image.tag_regions)} tag regions, labels at "
      f"{[hex(a) for a, _ in image.label_addrs]}")

print("\ncarrier packing for three tags (1, 0, 2) at 6 bits each:")
word = codec.tag_packer(TagCarrier.LUI_NOP, 3)((1, 0, 2))
print(f"  word = {word:#010x}  (lui x0, {(word >> 12):#x})")
print(f"  unpacked -> {codec.tag_reader(TagCarrier.LUI_NOP, 3)(word)}")
print(f"\ndefault function alignment: {emitlink.FUNCTION_ALIGN} bytes; "
      f"HI/LO pairs tolerate up to {emitlink.MAX_PAIR_GAP} interposed words")
