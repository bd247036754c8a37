import hashlib
import re
import subprocess
import sys

import pytest

from rvtag import codec, emulator, frontend
from rvtag.frontend import (
    ParseError,
    UndefinedSymbol,
    assemble,
    assemble_unit,
)
from rvtag.instrument import get_tag, propagate_lineage, set_tag
from rvtag.pipeline import assemble_sources
from rvtag.tagplan import DATA_BASE, STACK_SIZE, STACK_TOP, make_config

LOOP3 = """
counts:
    addi a0, a0, 1
    addi a1, a1, 2
    bne a0, a1, counts
"""

ASM_EX_LOOP = """
loop_start:
    addi t1, t1, 1
    addi t2, t2, 2
    addi t3, t3, 3
    j loop_start
"""


def test_minimal_function_with_backward_branch():
    program = assemble(LOOP3)
    assert len(program.fragments) == 1
    frag = program.fragments[0]
    assert frag.name == "counts"
    assert len(frag.insns) == 3
    assert frag.relocations == []
    branch = frag.insns[2].insn
    assert branch.mnemonic == "bne"
    assert branch.imm == -8  # resolved locally, untagged layout


def test_asm_ex_loop_is_four_instructions():
    program = assemble(ASM_EX_LOOP)
    frag = program.fragments[0]
    assert len(frag.insns) == 4
    assert frag.insns[3].insn.mnemonic == "jal"
    assert frag.insns[3].insn.imm == -12


def test_call_generates_hi_lo_pair():
    program = assemble(
        ".globl main\n"
        "main:\n"
        "    call f\n"
        "    ecall\n"
        ".globl f\n"
        "f:\n"
        "    ret\n"
    )
    main = program.fragment("main")
    assert [ti.insn.mnemonic for ti in main.insns] == ["auipc", "jalr", "ecall"]
    auipc, jalr = main.insns[0].insn, main.insns[1].insn
    assert auipc.rd == 5          # scratch register
    assert jalr.rd == 1 and jalr.rs1 == 5
    kinds = {(r.kind, r.offset) for r in main.relocations}
    assert kinds == {("Hi20", 0), ("Lo12I", 4)}
    pair_ids = {r.pair_id for r in main.relocations}
    assert len(pair_ids) == 1 and None not in pair_ids
    # both halves share the lineage id
    assert main.insns[0].lineage == main.insns[1].lineage is not None


def test_relocation_pairing_multiset():
    program = assemble(
        "main:\n"
        "    call f\n"
        "    la a0, buf\n"
        "    call f\n"
        "    ecall\n"
        ".globl f\n"
        "f:\n"
        "    ret\n"
        ".data\n"
        "buf:\n"
        "    .zero 8\n"
    )
    frag = program.fragment("main")
    his = sorted(r.pair_id for r in frag.relocations if r.kind == "Hi20")
    los = sorted(r.pair_id for r in frag.relocations if r.kind == "Lo12I")
    assert his == los and len(his) == 3
    for reloc in frag.relocations:
        hi = [r for r in frag.relocations
              if r.pair_id == reloc.pair_id and r.kind == "Hi20"]
        lo = [r for r in frag.relocations
              if r.pair_id == reloc.pair_id and r.kind == "Lo12I"]
        assert len(hi) == 1 and len(lo) == 1
        assert hi[0].offset < lo[0].offset


def test_cross_fragment_branch_becomes_relocation():
    program = assemble(
        "f:\n"
        "    beq a0, a1, g\n"
        "    j g\n"
        "    ecall\n"
        ".globl g\n"
        "g:\n"
        "    ret\n"
    )
    frag = program.fragment("f")
    kinds = sorted((r.kind, r.offset, r.target) for r in frag.relocations)
    assert kinds == [("Branch", 0, "g"), ("Jal", 4, "g")]


def test_labels_without_declaration_stay_local():
    program = assemble(
        "main:\n"
        "    li t1, 3\n"
        "again:\n"
        "    addi t1, t1, -1\n"
        "    bne t1, x0, again\n"
        "    ecall\n"
    )
    assert len(program.fragments) == 1
    frag = program.fragments[0]
    assert frag.insns[2].insn.imm == -4


def test_entry_defaults_to_first_fragment():
    program = assemble("main:\n    ecall\n")
    assert program.entry == "main" and not program.entry_explicit
    program = assemble(".entry other\nmain:\n    ecall\nother:\n    ecall\n")
    assert program.entry == "other" and program.entry_explicit


def test_fragment_attributes_and_signature():
    program = assemble(
        ".globl api\n"
        ".internal helper\n"
        "api:\n"
        '    .signature "i64(i64)"\n'
        "    ret\n"
        "helper:\n"
        "    ret\n"
    )
    api = program.fragment("api")
    helper = program.fragment("helper")
    assert api.exported and not api.internal
    assert api.signature == "i64(i64)"
    assert helper.internal and not helper.exported


def test_la_marks_address_taken():
    program = assemble(
        "main:\n"
        "    la t1, target\n"
        "    ecall\n"
        ".globl target\n"
        "target:\n"
        "    ret\n"
    )
    assert program.fragment("target").address_taken


def test_calltype_binds_to_next_jalr():
    program = assemble(
        "main:\n"
        "    la t1, main\n"
        '    .calltype "i64(i64)"\n'
        "    jalr ra, t1, 0\n"
        "    ecall\n"
    )
    frag = program.fragment("main")
    assert frag.insns[2].insn.mnemonic == "jalr"
    assert frag.insns[2].calltype == "i64(i64)"
    assert frag.insns[0].calltype is None


def test_calltype_survives_an_annotation():
    program = assemble(
        "main:\n"
        '    .calltype "i64(i64)"\n'
        "    jalr ra, t1, 0 !count\n"
        '    .calltype "i64()"\n'
        "    call main !count\n"
    )
    jalr, auipc, call = program.fragment("main").insns
    assert (jalr.calltype, jalr.annotations) == ("i64(i64)", {"count"})
    assert (auipc.calltype, auipc.annotations) == (None, {"count"})
    assert (call.calltype, call.annotations) == ("i64()", {"count"})


def test_annotations():
    program = assemble(
        "main:\n"
        "    sub a2, a0, a2 !unsigned\n"
        "    sub a1, a3, a1 !unsigned !optout\n"
        "    addi a4, a4, 1 !count\n"
        "    ecall\n"
    )
    insns = program.fragments[0].insns
    assert insns[0].annotations == {"unsigned"}
    assert insns[1].annotations == {"unsigned", "optout"}
    assert insns[2].annotations == {"count"}


@pytest.mark.parametrize("source, line", [
    ("main:\n    !unsigned\n    ecall\n", 2),
    ("main:\n    ret\n    !unsigned\n", 3),
    ("main: !count !optout\n    ecall\n", 1),
])
def test_statement_of_only_annotations_is_a_parse_error(source, line):
    with pytest.raises(ParseError) as info:
        assemble(source)
    assert (info.value.message, info.value.line) == ("annotations without an instruction", line)


def test_unsigned_annotation_restricted():
    with pytest.raises(ParseError):
        assemble("main:\n    li a0, 99 !unsigned\n")
    with pytest.raises(ParseError):
        assemble("main:\n    mul a0, a1, a2 !unsigned\n")


def test_data_section():
    program = assemble(
        "main:\n"
        "    ecall\n"
        ".data\n"
        "table:\n"
        "    .word 0x11223344, 2\n"
        "vals:\n"
        "    .dword 0x1122334455667788\n"
        "pad:\n"
        "    .zero 3\n"
        "    .word -0x80000000, 0xffffffff\n"  # each width's ends, signed and unsigned
        "    .dword -0x8000000000000000, 0xffffffffffffffff\n"
    )
    assert program.data_symbols == {"table": 0, "vals": 8, "pad": 16}
    assert program.data == (
        b"\x44\x33\x22\x11\x02\x00\x00\x00"
        b"\x88\x77\x66\x55\x44\x33\x22\x11"
        b"\x00\x00\x00"
        b"\x00\x00\x00\x80\xff\xff\xff\xff"
        b"\x00\x00\x00\x00\x00\x00\x00\x80" + b"\xff" * 8
    )


def test_defsym_overrides():
    program = assemble("main:\n    li t1, ITERS\n    ecall\n", defsym={"ITERS": 7})
    assert program.fragments[0].insns[0].insn.imm == 7
    with pytest.raises(ParseError):
        assemble("main:\n    li t1, MISSING\n    ecall\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        assemble("main:\n    frobnicate a0, a1\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        assemble("main:\n    addi a0\n")
    with pytest.raises(ParseError):
        assemble("main:\n    .word 1\n")  # .word outside .data
    with pytest.raises(UndefinedSymbol):
        assemble("main:\n    bne a0, a1, nowhere\n")
    with pytest.raises(UndefinedSymbol):
        assemble(".globl ghost\nmain:\n    ecall\n")


def test_operand_range_reported_at_parse_time():
    with pytest.raises(ParseError) as info:
        assemble("main:\n    nop\n    slli a0, a1, 64\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        assemble("main:\n    addi a0, a0, 4096\n")
    assert info.value.line == 2
    with pytest.raises(ParseError):
        assemble("main:\n    lui a0, 0x100000\n")


def test_duplicate_labels_rejected():
    with pytest.raises(ParseError):
        assemble("main:\nx:\n    ecall\nx:\n    ecall\n")
    with pytest.raises(ParseError):
        assemble(".globl f\nf:\n    ecall\n.globl f\nf:\n    ecall\n")
    with pytest.raises(ParseError):
        assemble("main:\n    ecall\n.data\nmain:\n    .word 1\n")
    with pytest.raises(ParseError, match="^b.s:4:1: 'main' is already a function$"):
        assemble_sources(["main:\n    ecall\n", "other:\n    ecall\n.data\nmain:\n    .word 1\n"],
                         filenames=["a.s", "b.s"])


@pytest.mark.parametrize("files, message", [
    ([("main:\n    nop\n    bne a0, a1, nowhere\n    ecall\n", "t/u1.s")],
     "t/u1.s:3:1: undefined label 'nowhere'"),
    ([("main:\n    ecall\n", "a.s"), ("helper:\n    ecall\n.globl f\n.internal f\n", "b.s")],
     "b.s:3:1: declared symbol 'f' is never defined"),
    ([("main:\n    ecall\n.data\nbuf:\n    .word 1\n.entry buf\n", "prog.s")],
     "prog.s:6:1: .entry symbol 'buf' is not a function"),
], ids=["undefined-label", "never-defined", "entry-not-a-function"])
def test_errors_found_after_the_last_file_name_their_line(files, message):
    with pytest.raises(UndefinedSymbol, match=f"^{re.escape(message)}$"):
        assemble_unit(files)


@pytest.mark.parametrize("source, line, names", [
    (".entry a\n.entry b\na:\n    ecall\nb:\n    ecall\n", 2, "['a', 'b']"),
    ("a:\n    ecall\n.entry a\n.entry a\nb:\n    ecall\n.entry b\n.entry c\n", 7,
     "['a', 'b', 'c']"),
])
def test_two_entry_symbols_name_the_line_of_the_second(source, line, names):
    with pytest.raises(ParseError, match=f"^t.s:{line}:1: "
                                         f"{re.escape(f'multiple .entry symbols: {names}')}$"):
        assemble(source, filename="t.s")


def test_an_empty_link_unit_is_a_parse_error():
    for build in (lambda: assemble_unit([]), lambda: assemble_sources([])):
        with pytest.raises(ParseError, match="the link unit has no input$"):
            build()


# ---------------------------------------------------------------------------
# Pseudo expansion

def _expand(line):
    """The instructions and relocations of `line` assembled alone; the
    assembler gives its first pseudo-instruction lineage 1."""
    fragment = assemble(f"main:\n    {line}\n").fragments[0]
    return fragment.insns, fragment.relocations


def test_expand_call():
    insns, relocations = _expand("call f")
    assert [ti.insn.mnemonic for ti in insns] == ["auipc", "jalr"]
    assert all(ti.lineage == 1 for ti in insns)
    assert [(r.kind, r.offset, r.target) for r in relocations] == [
        ("Hi20", 0, "f"), ("Lo12I", 4, "f")]


def test_expand_nop():
    insns, _ = _expand("nop")
    assert [ti.insn for ti in insns] == [codec.Insn("addi")]


def test_expand_li_wide():
    insns, _ = _expand("li a0, 0x12345")
    assert [ti.insn.mnemonic for ti in insns] == ["lui", "addi"]
    lui, addi = (ti.insn for ti in insns)
    assert lui.imm == 0x12
    assert addi.imm == 0x345
    assert {ti.lineage for ti in insns} == {1}


def test_expand_li_negative_low_part():
    lui, addi = (ti.insn for ti in _expand("li a0, 0x12fff")[0])
    # materialized value must equal lui<<12 plus the sign-extended low part
    assert ((lui.imm << 12) + addi.imm) & 0xFFFFFFFF == 0x12FFF


def test_expand_ret_and_mv():
    ret = _expand("ret")[0][0].insn
    assert (ret.mnemonic, ret.rd, ret.rs1, ret.imm) == ("jalr", 0, 1, 0)
    mv = _expand("mv a1, a2")[0][0].insn
    assert (mv.mnemonic, mv.rd, mv.rs1, mv.imm) == ("addi", 11, 12, 0)


def test_jr_encodes_as_jalr_x0():
    program = assemble("main:\n    jr t0\n    jalr x0, t0, 0\n")
    jr, jalr = program.fragments[0].insns
    assert codec.encode(jr.insn) == codec.encode(jalr.insn)
    assert jr.lineage is not None and jalr.lineage is None
    assert [(ti.insn, ti.lineage) for ti in _expand("jr a5")[0]] == \
        [(codec.Insn("jalr", rd=0, rs1=15, imm=0), 1)]


def test_jr_rejects_wrong_operand_count():
    for line in ("jr", "jr t0, t1", "jr t0, 0"):
        with pytest.raises(ParseError):
            assemble(f"main:\n    {line}\n")


@pytest.mark.parametrize("line", ["ret x", "call 5", "jr", "jr t0, t1", "li a0"])
def test_pseudo_operand_error_names_its_line(line):
    with pytest.raises(ParseError) as info:
        assemble(f"main:\n    nop\n    {line}\n", filename="prog.s")
    assert (info.value.line, info.value.filename) == (3, "prog.s")


# ---------------------------------------------------------------------------
# Operand forms at the edges of their fields

@pytest.mark.parametrize("statement, insn", [
    ("lui s1, 0xfffff", codec.Insn("lui", rd=9, imm=0xFFFFF)),
    ("auipc s2, 0x1", codec.Insn("auipc", rd=18, imm=1)),
    ("sb a4, -1(gp)", codec.Insn("sb", rs1=3, rs2=14, imm=-1)),
    ("sltiu a5, a6, 2047", codec.Insn("sltiu", rd=15, rs1=16, imm=2047)),
    ("srai a7, s3, 63", codec.Insn("srai", rd=17, rs1=19, imm=63)),
    ("jalr x0, ra, 0", codec.Insn("jalr", rd=0, rs1=1, imm=0)),
])
def test_statement_assembles_to_its_word(statement, insn):
    assembled = assemble(f"f:\n    {statement}\n").fragments[0].insns[0].insn
    assert codec.encode(assembled) == codec.encode(insn)


def _statement(mnemonic, imm):
    """One statement of a real mnemonic with immediate `imm` (if it has one),
    and the (rd, rs1, rs2, imm) it stands for."""
    fmt = codec._ISA[mnemonic][0]
    if mnemonic in codec.LOAD_MNEMONICS:
        return f"{mnemonic} a0, {imm}(a1)", (10, 11, 0, imm)
    if fmt == codec._S:
        return f"{mnemonic} a0, {imm}(a1)", (0, 11, 10, imm)
    if fmt == codec._B:
        return f"{mnemonic} a0, a1, {imm}", (0, 10, 11, imm)
    if fmt in (codec._J, codec._U):
        return f"{mnemonic} a0, {imm}", (10, 0, 0, imm)
    if fmt == codec._R:
        return f"{mnemonic} a0, a1, a2", (10, 11, 12, 0)
    if fmt == codec._SYS:
        return mnemonic, (0, 0, 0, 0)
    return f"{mnemonic} a0, a1, {imm}", (10, 11, 0, imm)


# encode_fields's immediate bounds per format.
_FORMAT_BOUNDS = {codec._I: (-2048, 2047), codec._S: (-2048, 2047), codec._SHIFT: (0, 63),
                  codec._U: (0, 0xFFFFF), codec._B: codec.BRANCH_REACH, codec._J: codec.JAL_REACH}


def test_statement_table_has_exactly_the_real_mnemonics():
    assert set(frontend.STATEMENTS) == codec.MNEMONICS


@pytest.mark.parametrize("mnemonic", sorted(codec.MNEMONICS))
def test_statement_table_agrees_with_encode_fields(mnemonic):
    def assembled(statement):
        return assemble(f"f:\n    {statement}\n", filename="t.s").fragments[0].insns[0].insn

    lo, hi = _FORMAT_BOUNDS.get(codec._ISA[mnemonic][0], (0, 0))
    # a literal transfer offset must also be a multiple of 4
    top = hi - hi % 4 if mnemonic in codec.TRANSFER_MNEMONICS else hi
    for imm in (lo, top):
        statement, fields = _statement(mnemonic, imm)
        assert codec.encode(assembled(statement)) == codec.encode_fields(mnemonic, *fields)
    for imm in (lo - 1, hi + 1) if hi else ():
        statement, fields = _statement(mnemonic, imm)
        with pytest.raises(codec.OperandRange) as expected:
            codec.encode_fields(mnemonic, *fields)
        with pytest.raises(ParseError, match=f"^t.s:2:1: {re.escape(str(expected.value))}$"):
            assembled(statement)
    statement, _ = _statement(mnemonic, 0)
    arity = len(statement.split(None, 1)[1].split(",")) if " " in statement else 0
    wrong = [(f"{statement}, a3" if arity else f"{statement} a3", arity + 1)]
    if arity:
        wrong.append((statement.rsplit(",", 1)[0], arity - 1))
    for bad, count in wrong:
        with pytest.raises(ParseError, match=f"^t.s:2:1: {mnemonic} expects {arity} "
                                             rf"operand\(s\), got {count}$"):
            assembled(bad)


def test_merge_programs():
    merged = assemble_sources([".globl main\n.entry main\nmain:\n    call util\n    ecall\n"
                               ".data\nbuf_a:\n    .zero 4\n",
                               ".globl util\nutil:\n    la a0, buf_b\n    ret\n"
                               ".data\nbuf_b:\n    .word 1\n"])
    assert [f.name for f in merged.fragments] == ["main", "util"]
    assert merged.entry == "main" and merged.entry_explicit
    assert merged.data_symbols == {"buf_a": 0, "buf_b": 4}
    assert len(merged.data) == 8


def test_merged_units_keep_distinct_lineages():
    config = make_config(policy="cfi", tags=(("N", 0), ("CFL", 1), ("X", 2)))
    program = assemble_sources(["main:\n    li a0, 0x12345\n    call f\n    ecall\n",
                                "f:\n    li a1, 0x12345\n    ret\n"])
    main, f = program.fragments
    assert [ti.lineage for ti in main.insns] == [1, 1, 2, 2, None]
    assert [ti.lineage for ti in f.insns] == [3, 3, 4]
    assert program.lineage_count == 4
    set_tag(program, (0, 0), "X", config)
    propagate_lineage(program)
    assert [get_tag(program, (0, i), config) for i in range(5)] == [2, 2, 0, 0, 0]
    assert [get_tag(program, (1, i), config) for i in range(3)] == [0, 0, 0]


DATA_ROOM = STACK_TOP - STACK_SIZE - DATA_BASE  # bytes of data the map holds


def test_data_past_the_stack_bottom_fails_at_its_line():
    assert DATA_ROOM == 8241152
    assert len(assemble("main:\n    ecall\n.data\nbuf:\n    .zero 8241152\n").data) == DATA_ROOM
    with pytest.raises(ParseError) as info:
        assemble("main:\n    ecall\n.data\nbuf:\n    .zero 8241153\n", filename="big.s")
    assert str(info.value) == "big.s:5:1: .zero takes data past the stack bottom 0x7fc000"


@pytest.mark.parametrize("directive", [".word 1, 2", ".dword 1", ".zero 5"])
def test_the_data_of_the_whole_unit_is_bounded(directive):
    first = f"main:\n    ecall\n.data\na:\n    .zero {DATA_ROOM - 4}\n"
    fits = assemble_sources([first, "f:\n    ret\n.data\nb:\n    .word 1\n"])
    assert len(fits.data) == DATA_ROOM
    message = f"b.s:5:1: {directive.split()[0]} takes data past the stack bottom 0x7fc000"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        assemble_sources([first, f"f:\n    ret\n.data\nb:\n    {directive}\n"],
                         filenames=["a.s", "b.s"])


def test_a_huge_zero_fails_before_it_allocates():
    # under a 1 GiB address space, allocating first would be a MemoryError
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from rvtag.frontend import ParseError, assemble\n"
              "try:\n"
              "    assemble('main:\\n    ecall\\n.data\\nbuf:\\n    .zero 100000000000\\n')\n"
              "except ParseError as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == "<source>:5:1: .zero takes data past the stack bottom 0x7fc000\n", \
        proc.stderr


# ---------------------------------------------------------------------------
# Pinned assembly: every field of the program model

def _assembly_record(program) -> bytes:
    """repr of the whole Program, with each annotation set sorted so the
    record does not depend on string hashing."""
    fragments = [
        (frag.name, frag.exported, frag.internal, frag.address_taken, frag.signature,
         frag.relocations,
         [(ti.insn, ti.tag, ti.lineage, ti.is_label, sorted(ti.annotations), ti.calltype)
          for ti in frag.insns])
        for frag in program.fragments
    ]
    return repr((fragments, bytes(program.data), program.data_symbols, program.entry,
                 program.entry_explicit, program.lineage_count,
                 program.lineage_first_tag)).encode()


# sha256 over the records below, computed with the assembler that parsed
# operands through a per-mnemonic elif chain and re-parsed pseudo lines.
ASSEMBLY_DIGEST = "1e06c88147eb950614131201d9a9fcec96e5ea736ba49ca2f726ce3a439920d1"


def test_assembly_is_pinned():
    import random

    from test_acceptance import (
        CALLEE_FIRST,
        COVERAGE_BLOCKS,
        LOOP_PROGRAM,
        MICRO_TESTS,
        UNDERFLOW_COPY,
        _cfi_source,
    )
    from test_emulator import _bench_workloads

    from rvtag.corpus import generate_corpus

    workloads = _bench_workloads()
    sources = generate_corpus(7, 40) + MICRO_TESTS + [
        CALLEE_FIRST,
        COVERAGE_BLOCKS,
        _cfi_source('"i64(i64)"', '"i64(i64)"'),
        _cfi_source('"i64(ptr)"', '"i64(i64)"', fixup="    addi t1, t1, 8\n"),
        UNDERFLOW_COPY.format(len1=2, len2=3, annot="!unsigned"),
        UNDERFLOW_COPY.format(len1=2, len2=3, annot="!unsigned !optout"),
        UNDERFLOW_COPY.format(len1=3, len2=2, annot="!count"),
        workloads.kernel(random.Random(3), 40)[0],
        workloads.large_unit(random.Random(3), 12)[0],
    ]
    digest = hashlib.sha256()
    for text in sources:
        digest.update(_assembly_record(assemble(text)))
    digest.update(_assembly_record(assemble(LOOP_PROGRAM, defsym={"ITERS": 5})))
    assert digest.hexdigest() == ASSEMBLY_DIGEST


# ---------------------------------------------------------------------------
# Malformed statements: exact message and line, at least one per operand shape

MALFORMED = [
    # rrr
    ("add a0, a1", "add expects 3 operand(s), got 2"),
    ("add a0, a1, q9", "'q9' is not a register"),
    ("sub a0, a1, a2, a3", "sub expects 3 operand(s), got 4"),
    ("add a0, a1,   a 2", "'a 2' is not a register"),
    # rri
    ("addi a0, a1, zz", "'zz' is not a number or defined symbol"),
    ("addi a0, a1, 4096", "addi: immediate 4096 outside [-2048, 2047]"),
    ("slli a0, a1, 64", "slli: immediate 64 outside [0, 63]"),
    ("jalr ra, t1", "jalr expects 3 operand(s), got 2"),
    ("addi a0, 5, a1", "'5' is not a register"),
    # ri
    ("lui a0", "lui expects 2 operand(s), got 1"),
    ("lui a0, 0x100000", "lui: immediate 1048576 outside [0, 1048575]"),
    ("auipc q, 1", "'q' is not a register"),
    # jal
    ("jal ra", "jal expects 2 operand(s), got 1"),
    ("jal ra, 1x", "'1x' is not a label or byte offset"),
    ("jal ra, 3", "jal: offset 3 must be even"),
    ("jal ra, 2000000", "jal: immediate 2000000 outside [-1048576, 1048574]"),
    ("jal 5, main", "'5' is not a register"),
    # branch
    ("beq a0, a1", "beq expects 3 operand(s), got 2"),
    ("beq a0, a1, 9bad", "'9bad' is not a label or byte offset"),
    ("beq a0, a1, 5000", "beq: immediate 5000 outside [-4096, 4094]"),
    ("bne a0, zz, main", "'zz' is not a register"),
    ("beq q1, q2, 9x", "'q1' is not a register"),
    ("blt a0, a1, 7", "blt: offset 7 must be even"),
    ("beq a0, a1, buf", "cannot branch to data symbol 'buf'"),
    # load: the offset(base) operand is checked before the destination
    ("lw a0, 4[sp]", "'4[sp]' is not an offset(base) operand"),
    ("lw a0, 4(q1)", "'q1' is not a register"),
    ("lw q9, 4(q1)", "'q1' is not a register"),
    ("lw a0, 4\t(sp)", "'4 (sp)' is not an offset(base) operand"),
    ("lw a0, 5000(sp)", "lw: immediate 5000 outside [-2048, 2047]"),
    ("ld a0", "ld expects 2 operand(s), got 1"),
    ("lw a0, FOO(sp)", "'FOO' is not a number or defined symbol"),
    ("lw a0,", "'' is not an offset(base) operand"),
    # store
    ("sd a0, (sp", "'(sp' is not an offset(base) operand"),
    ("sd q9, 4[sp]", "'4[sp]' is not an offset(base) operand"),
    ("sw a0", "sw expects 2 operand(s), got 1"),
    ("sb a0, -2049(sp)", "sb: immediate -2049 outside [-2048, 2047]"),
    ("sh q0, 0(sp)", "'q0' is not a register"),
    # sys
    ("ecall a0", "ecall expects 0 operand(s), got 1"),
    ("ebreak 1", "ebreak expects 0 operand(s), got 1"),
    # unknown mnemonic, annotations
    ("frob a0", "unknown mnemonic 'frob'"),
    ("ADDX a0, a1, a2", "unknown mnemonic 'addx'"),
    ("add a0, a1, a2 !signed", "unknown annotation !signed"),
    ("jal ra, main !bogus !count", "unknown annotation !bogus"),
    ("mul a0, a1, a2 !unsigned", "!unsigned/!optout do not apply to 'mul'"),
    ("xor a0, a1, a2 !optout", "!unsigned/!optout do not apply to 'xor'"),
    ("ecall !unsigned", "!unsigned/!optout do not apply to 'ecall'"),
    # pseudo-instructions
    ("li a0, 1 !unsigned", "!unsigned/!optout require a bare arithmetic instruction"),
    ("call 5", "call expects a symbol"),
    ("ret x", "ret takes no operands"),
    ("nop 1", "nop takes no operands"),
    ("li a0", "li expects rd, value"),
    ("li q, zz", "'q' is not a register"),
    ("li a0, zz", "'zz' is not a number or defined symbol"),
    ("li a0, 0x100000000", "li: 0x100000000 does not fit 32 signed bits"),
    ("mv a0", "mv expects rd, rs"),
    ("mv a0, 5", "'5' is not a register"),
    ("jr", "jr expects rs"),
    ("jr q7", "'q7' is not a register"),
    ("la a0, 5", "la expects rd, symbol"),
    ("la q, buf", "'q' is not a register"),
    ("j 1x", "'1x' is not a label or byte offset"),
    # a pseudo-instruction's words get the encode checks of a real one, and
    # a literal transfer offset must be a whole number of words
    ("j 3", "jal: offset 3 must be even"),
    ("j 2000000", "jal: immediate 2000000 outside [-1048576, 1048574]"),
    ("j 6", "j: offset 6 is not a multiple of 4"),
    ("j -2", "j: offset -2 is not a multiple of 4"),
    ("jal x0, 6", "jal: offset 6 is not a multiple of 4"),
    ("beq a0, a1, 6", "beq: offset 6 is not a multiple of 4"),
    ("bgeu a0, a1, -4094", "bgeu: offset -4094 is not a multiple of 4"),
    # data values must fit their width, signed or unsigned
    (".word 0x100000001", ".word: 0x100000001 does not fit 32 bits"),
    (".word 1, -0x80000001", ".word: -0x80000001 does not fit 32 bits"),
    (".dword 0x1ffffffffffffffff", ".dword: 0x1ffffffffffffffff does not fit 64 bits"),
    (".dword -0x8000000000000001", ".dword: -0x8000000000000001 does not fit 64 bits"),
]


@pytest.mark.parametrize("statement, message", MALFORMED)
def test_malformed_statement_message(statement, message):
    source = f"main:\n    nop\n    {statement}\n    ecall\n.data\nbuf:\n    .word 1\n"
    if statement.startswith("."):  # a data directive, on line 3 of .data
        source = f".data\nbuf:\n    {statement}\n.text\nmain:\n    ecall\n"
    with pytest.raises(ParseError) as info:
        assemble(source, filename="prog.s")
    assert (info.value.message, info.value.line) == (message, 3)
    assert str(info.value) == f"prog.s:3:1: {message}"


def test_word_multiple_literal_offsets_link_tagged_and_untagged():
    from rvtag.pipeline import build_image
    from rvtag.tagplan import make_config

    source = ("main:\n    li a0, 3\n    j 8\n    ebreak\n    addi a0, a0, -1\n"
              "    bne a0, zero, -4\n    li a0, 7\n    ecall\n")
    config = make_config(carrier="lui", coverage=3)
    for tagged in (False, True):
        state, counters, _ = emulator.run(build_image(source, config, tagged=tagged),
                                          max_insns=100)
        assert (state.stop_reason, state.exit_code, counters.retired) == ("ecall", 7, 10)


# ---------------------------------------------------------------------------
# Seeded fuzz: junk tokens in generated programs give a Program or a BuildError

FUZZ_JUNK = [
    "!unsigned", "!optout", "!count", "!bogus", "!", ",", ", ,", "(", ")", "()",
    "0x", "0x7ff", "-1", "4096", "99999999999", "3", "x99", "sp", "a0", "zero",
    "4(sp)", "-8(a0)", "(sp", "lbl:", "main:", ":", ".word", ".globl", ".zero",
    ".text", ".data", '.calltype "i64()"', '"s"', "main", "buf", "call", "li",
    "la", "j", "ret", "nop", "ecall", "addi", "beq", "lw", "sd", "jal", "#",
]


def _fuzz_mutants(rng, sources, count):
    for _ in range(count):
        lines = rng.choice(sources).splitlines()
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(lines))
            tokens = lines[index].split()
            if tokens and rng.random() < 0.3:
                tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_JUNK)
            else:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(FUZZ_JUNK))
            lines[index] = "    " + " ".join(tokens)
        yield "\n".join(lines) + "\n"


def test_assembly_fuzz_gives_program_or_build_error():
    """Each mutant assembles to a Program or fails with a BuildError, and
    each Program links untagged, under cfi with direct-call labels and
    under coverage to an Image or a BuildError."""
    import random

    from rvtag.corpus import generate_corpus
    from rvtag.emitlink import Image, link
    from rvtag.errors import BuildError
    from rvtag.frontend import Program
    from rvtag.pipeline import build_image

    cfi = make_config(carrier="lui", coverage=3, policy="cfi")
    coverage = make_config(carrier="lui", coverage=7, policy="coverage")
    rng = random.Random(8)
    outcomes = {"program": 0, "error": 0, "image": 0, "link error": 0}
    for text in _fuzz_mutants(rng, generate_corpus(11, 20), 1000):
        try:
            program = assemble(text)
        except BuildError:
            outcomes["error"] += 1
            continue
        assert isinstance(program, Program)
        outcomes["program"] += 1
        for build in (lambda: link(program, tagged=False),
                      lambda: build_image(text, cfi, cfi_label_direct_calls=True),
                      lambda: build_image(text, coverage)):
            try:
                assert isinstance(build(), Image)
                outcomes["image"] += 1
            except BuildError:
                outcomes["link error"] += 1
    assert all(outcomes.values()), outcomes
