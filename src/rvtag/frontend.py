"""Two-pass assembler from the textual RV64 subset into the program model.

Grammar (one statement per line, `#` comments):

    label:                 plain identifiers; a label declared with .globl,
                           .internal, or .entry starts a new function
                           fragment, as does the first label of a file;
                           any other label is local to the current fragment
    .globl NAME            export NAME (fragment boundary marker)
    .internal NAME         mark NAME internal (exempt from entry labels)
    .entry NAME            program entry point (default: first fragment)
    .signature "SIG"       canonical signature of the current function
    .calltype "SIG"        signature annotation for the next call site
    .text / .data          section switch
    .word V[, V...]        32-bit data values (.data only)
    .dword V[, V...]       64-bit data values (.data only)
    .zero N                N zero bytes (.data only)

Instruction operands accept decimal/hex immediates, `!unsigned`, `!optout`
and `!count` trailing annotations, and `--defsym`-style symbol overrides for
immediate identifiers.  Branch/jump targets are label names or literal byte
deltas.  Pseudo-instructions call/j/jr/ret/li/mv/nop/la expand with a shared
lineage id per source line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from . import codec
from .codec import Insn
from .errors import BuildError


class ParseError(BuildError):
    def __init__(self, message, line=0, column=1, filename="<source>"):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename


class UndefinedSymbol(BuildError):
    """A referenced label or symbol has no definition."""


class UnsupportedPseudo(BuildError):
    """The mnemonic is not a recognized pseudo-instruction."""


REGISTER_NAMES = {}
for _i in range(32):
    REGISTER_NAMES[f"x{_i}"] = _i
for _i, _name in enumerate(
    "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 a6 a7 "
    "s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6".split()
):
    REGISTER_NAMES[_name] = _i
REGISTER_NAMES["fp"] = 8

_IDENT = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")

ANNOTATIONS = ("unsigned", "optout", "count")

PSEUDO_MNEMONICS = frozenset({"call", "j", "jr", "ret", "li", "mv", "nop", "la"})


@dataclass
class TaggedInsn:
    """One instruction plus its tag annotation and expansion lineage.

    `tag` stays None until a pass or the tagging API assigns one; consumers
    substitute the configured default for untouched instructions.
    """

    insn: Insn
    tag: int | None = None
    lineage: int | None = None
    is_label: bool = False
    annotations: frozenset = frozenset()
    calltype: str | None = None


@dataclass
class Relocation:
    kind: str              # Hi20 | Lo12I | Branch | Jal
    offset: int            # byte offset of the instruction in its fragment
    target: str
    pair_id: int | None = None


@dataclass
class Fragment:
    """One function's instructions plus its relocation table."""

    name: str
    insns: list = field(default_factory=list)
    relocations: list = field(default_factory=list)
    exported: bool = False
    internal: bool = False
    address_taken: bool = False
    signature: str | None = None

    def reloc_offsets(self) -> set:
        return {r.offset for r in self.relocations}


@dataclass
class Program:
    """Assembled program: code fragments, one data blob, symbol attributes."""

    fragments: list = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    data_symbols: dict = field(default_factory=dict)
    entry: str = ""
    entry_explicit: bool = False
    lineage_count: int = 0
    lineage_first_tag: dict = field(default_factory=dict)

    def fragment(self, name: str) -> Fragment:
        for frag in self.fragments:
            if frag.name == name:
                return frag
        raise UndefinedSymbol(f"no fragment named {name!r}")


def _parse_int(token: str, defsym: dict, err) -> int:
    try:
        return int(token, 0)
    except ValueError:
        pass
    if token in defsym:
        return defsym[token]
    raise err(f"{token!r} is not a number or defined symbol")


def _parse_reg(token: str, err) -> int:
    if token not in REGISTER_NAMES:
        raise err(f"{token!r} is not a register")
    return REGISTER_NAMES[token]


_MEM_OPERAND = re.compile(r"^(-?[0-9][xX]?[0-9a-fA-F]*|[A-Za-z_.$][\w.$]*)?\((\w+)\)$")


def _split_operands(text: str):
    return [part.strip() for part in text.split(",")] if text.strip() else []


class _LineParser:
    """Shared instruction-parsing machinery for assemble and expand_pseudo."""

    def __init__(self, defsym=None, filename="<source>"):
        self.defsym = defsym or {}
        self.filename = filename

    def error(self, message, line=0, column=1):
        return ParseError(message, line=line, column=column, filename=self.filename)

    def parse_instruction(self, mnemonic, operand_text, lineno):
        """Parse one real instruction; branch targets come back symbolic."""
        err = lambda msg: self.error(msg, line=lineno)
        ops = _split_operands(operand_text)
        target = None

        def want(n):
            if len(ops) != n:
                raise err(f"{mnemonic} expects {n} operand(s), got {len(ops)}")

        if mnemonic in ("lui", "auipc"):
            want(2)
            insn = Insn(mnemonic, rd=_parse_reg(ops[0], err),
                        imm=_parse_int(ops[1], self.defsym, err))
        elif mnemonic == "jal":
            want(2)
            rd = _parse_reg(ops[0], err)
            imm, target = self._branch_target(ops[1], err)
            insn = Insn("jal", rd=rd, imm=imm)
        elif mnemonic == "jalr":
            want(3)
            insn = Insn("jalr", rd=_parse_reg(ops[0], err), rs1=_parse_reg(ops[1], err),
                        imm=_parse_int(ops[2], self.defsym, err))
        elif mnemonic in codec.BRANCH_MNEMONICS:
            want(3)
            rs1 = _parse_reg(ops[0], err)
            rs2 = _parse_reg(ops[1], err)
            imm, target = self._branch_target(ops[2], err)
            insn = Insn(mnemonic, rs1=rs1, rs2=rs2, imm=imm)
        elif mnemonic in codec.LOAD_MNEMONICS:
            want(2)
            imm, rs1 = self._mem_operand(ops[1], err)
            insn = Insn(mnemonic, rd=_parse_reg(ops[0], err), rs1=rs1, imm=imm)
        elif mnemonic in codec.STORE_MNEMONICS:
            want(2)
            imm, rs1 = self._mem_operand(ops[1], err)
            insn = Insn(mnemonic, rs2=_parse_reg(ops[0], err), rs1=rs1, imm=imm)
        elif mnemonic in ("ecall", "ebreak"):
            want(0)
            insn = Insn(mnemonic)
        elif mnemonic in codec.MNEMONICS:
            want(3)
            fmt = codec._ISA[mnemonic][0]
            rd = _parse_reg(ops[0], err)
            rs1 = _parse_reg(ops[1], err)
            if fmt == codec._R:
                insn = Insn(mnemonic, rd=rd, rs1=rs1, rs2=_parse_reg(ops[2], err))
            else:
                insn = Insn(mnemonic, rd=rd, rs1=rs1,
                            imm=_parse_int(ops[2], self.defsym, err))
        else:
            raise err(f"unknown mnemonic {mnemonic!r}")
        return insn, target

    def _branch_target(self, token, err):
        """Return (imm, symbol): numeric deltas resolve now, names later."""
        try:
            return int(token, 0), None
        except ValueError:
            pass
        if not _IDENT.match(token):
            raise err(f"{token!r} is not a label or byte offset")
        return 0, token

    def _mem_operand(self, token, err):
        match = _MEM_OPERAND.match(token)
        if not match:
            raise err(f"{token!r} is not an offset(base) operand")
        off_text, base = match.groups()
        offset = _parse_int(off_text, self.defsym, err) if off_text else 0
        return offset, _parse_reg(base, err)


@dataclass
class ExpandedPseudo:
    """Pseudo-expansion result; relocation offsets are expansion-relative."""

    insns: list
    relocations: list = field(default_factory=list)
    branch_target: str | None = None


def expand_pseudo(line: str, lineage: int = 0, defsym=None) -> ExpandedPseudo:
    """Expand one pseudo-instruction line into tagged instructions.

    Every produced instruction carries the given lineage id so that tag
    propagation can treat the expansion as one unit.
    """
    parser = _LineParser(defsym=defsym)
    text = line.split("#", 1)[0].strip()
    parts = text.split(None, 1)
    if not parts:
        raise UnsupportedPseudo("empty line")
    mnemonic = parts[0].lower()
    operand_text = parts[1] if len(parts) > 1 else ""
    if mnemonic not in PSEUDO_MNEMONICS:
        raise UnsupportedPseudo(f"{mnemonic!r} is not a supported pseudo-instruction")
    err = lambda msg: ParseError(msg)
    ops = _split_operands(operand_text)

    def tagged(insn):
        return TaggedInsn(insn=insn, lineage=lineage)

    if mnemonic == "nop":
        if ops:
            raise err("nop takes no operands")
        return ExpandedPseudo([tagged(Insn("addi"))])
    if mnemonic == "ret":
        if ops:
            raise err("ret takes no operands")
        return ExpandedPseudo([tagged(Insn("jalr", rd=0, rs1=1, imm=0))])
    if mnemonic == "jr":
        if len(ops) != 1:
            raise err("jr expects rs")
        return ExpandedPseudo([tagged(Insn("jalr", rd=0, rs1=_parse_reg(ops[0], err), imm=0))])
    if mnemonic == "mv":
        if len(ops) != 2:
            raise err("mv expects rd, rs")
        return ExpandedPseudo(
            [tagged(Insn("addi", rd=_parse_reg(ops[0], err), rs1=_parse_reg(ops[1], err)))]
        )
    if mnemonic == "li":
        if len(ops) != 2:
            raise err("li expects rd, value")
        rd = _parse_reg(ops[0], err)
        value = _parse_int(ops[1], parser.defsym, err)
        return ExpandedPseudo(_expand_li(rd, value, lineage))
    if mnemonic == "j":
        if len(ops) != 1:
            raise err("j expects a target")
        imm, target = parser._branch_target(ops[0], err)
        insn = tagged(Insn("jal", rd=0, imm=imm))
        return ExpandedPseudo([insn], branch_target=target)
    if mnemonic == "call":
        if len(ops) != 1 or not _IDENT.match(ops[0]):
            raise err("call expects a symbol")
        pair = [
            tagged(Insn("auipc", rd=5)),            # t0 <- HI(target)
            tagged(Insn("jalr", rd=1, rs1=5)),      # ra <- pc+4, LO(target)
        ]
        relocs = [
            Relocation("Hi20", 0, ops[0]),
            Relocation("Lo12I", 4, ops[0]),
        ]
        return ExpandedPseudo(pair, relocs)
    # la rd, symbol
    if len(ops) != 2 or not _IDENT.match(ops[1]):
        raise err("la expects rd, symbol")
    rd = _parse_reg(ops[0], err)
    pair = [
        tagged(Insn("auipc", rd=rd)),
        tagged(Insn("addi", rd=rd, rs1=rd)),
    ]
    relocs = [
        Relocation("Hi20", 0, ops[1]),
        Relocation("Lo12I", 4, ops[1]),
    ]
    return ExpandedPseudo(pair, relocs)


def _expand_li(rd, value, lineage):
    if -2048 <= value <= 2047:
        return [TaggedInsn(Insn("addi", rd=rd, imm=value), lineage=lineage)]
    if not -(1 << 31) <= value <= (1 << 31) - 1:
        raise codec.OperandRange(f"li: {value:#x} does not fit 32 signed bits")
    hi = ((value + 0x800) >> 12) & 0xFFFFF
    lo = (value & 0xFFF) - (value & 0x800) * 2
    return [
        TaggedInsn(Insn("lui", rd=rd, imm=hi), lineage=lineage),
        TaggedInsn(Insn("addi", rd=rd, rs1=rd, imm=lo), lineage=lineage),
    ]


_STRING_ARG = re.compile(r'^"([^"]*)"$')


def _split_labels(raw):
    """Drop the comment, then split leading `name:` labels from the rest."""
    text = raw.split("#", 1)[0].strip()
    labels = []
    while ":" in text:  # a label needs one; most lines have none
        head = text.split(None, 1)[0]
        if not (head.endswith(":") and _IDENT.match(head[:-1])):
            break
        labels.append(head[:-1])
        text = text[len(head):].strip()
    return labels, text


class _Assembler:
    def __init__(self, defsym=None, filename="<source>"):
        self.parser = _LineParser(defsym=defsym, filename=filename)
        self.filename = filename
        self.program = Program()
        self.section = "text"
        self.current: Fragment | None = None
        self.declared = {}          # name -> set of markers from directives
        self.entry_requests = []
        self.local_labels = {}      # fragment name -> {label: insn index}
        self.branch_refs = []       # (fragment, insn index, symbol, lineno)
        self.pending_calltype = None
        self.pending_signature = None

    def error(self, message, lineno, column=1):
        return ParseError(message, line=lineno, column=column, filename=self.filename)

    # -- pass A: directive scan ------------------------------------------
    def scan_declarations(self, lines):
        for lineno, raw in lines:
            _, text = _split_labels(raw)
            if not text.startswith("."):
                continue
            parts = text.split(None, 1)
            directive = parts[0]
            arg = parts[1].strip() if len(parts) > 1 else ""
            if directive in (".globl", ".internal", ".entry"):
                if not _IDENT.match(arg):
                    raise self.error(f"{directive} expects a symbol name", lineno)
                self.declared.setdefault(arg, set()).add(directive[1:])
                if directive == ".entry":
                    self.entry_requests.append(arg)

    # -- pass B: build fragments -----------------------------------------
    def run(self, source):
        lines = list(enumerate(source.splitlines(), start=1))
        self.scan_declarations(lines)
        if len(set(self.entry_requests)) > 1:
            raise self.error(
                f"multiple .entry symbols: {sorted(set(self.entry_requests))}", 0)
        for lineno, raw in lines:
            self.line(lineno, raw)
        self.resolve_local_branches()
        self.finish_symbols()
        return self.program

    def line(self, lineno, raw):
        labels, text = _split_labels(raw)
        for name in labels:
            self.define_label(name, lineno)
        if not text:
            return
        if text.startswith("."):
            self.directive(text, lineno)
        else:
            self.instruction(text, lineno)

    def define_label(self, name, lineno):
        if self.section == "data":
            if name in self.program.data_symbols:
                raise self.error(f"duplicate data symbol {name!r}", lineno)
            if any(f.name == name for f in self.program.fragments):
                raise self.error(f"{name!r} is already a function", lineno)
            self.program.data_symbols[name] = len(self.program.data)
            return
        markers = self.declared.get(name, set())
        starts_fragment = bool(markers) or self.current is None
        if starts_fragment:
            if any(f.name == name for f in self.program.fragments):
                raise self.error(f"duplicate function {name!r}", lineno)
            if name in self.program.data_symbols:
                raise self.error(f"{name!r} is already a data symbol", lineno)
            frag = Fragment(
                name=name,
                exported="globl" in markers,
                internal="internal" in markers,
            )
            if frag.exported and frag.internal:
                raise self.error(f"{name!r} is both .globl and .internal", lineno)
            self.program.fragments.append(frag)
            self.current = frag
            self.local_labels[name] = {}
        else:
            labels = self.local_labels[self.current.name]
            if name in labels:
                raise self.error(f"duplicate label {name!r}", lineno)
            labels[name] = len(self.current.insns)

    def directive(self, text, lineno):
        parts = text.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name in (".globl", ".internal", ".entry"):
            return  # handled in pass A
        if name == ".text":
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".signature":
            match = _STRING_ARG.match(arg)
            if not match:
                raise self.error('.signature expects a quoted string', lineno)
            if self.current is None or self.section != "text":
                raise self.error(".signature outside a function", lineno)
            self.current.signature = match.group(1)
        elif name == ".calltype":
            match = _STRING_ARG.match(arg)
            if not match:
                raise self.error('.calltype expects a quoted string', lineno)
            self.pending_calltype = match.group(1)
        elif name in (".word", ".dword"):
            if self.section != "data":
                raise self.error(f"{name} outside .data", lineno)
            width = 4 if name == ".word" else 8
            for token in _split_operands(arg):
                value = _parse_int(token, self.parser.defsym,
                                   lambda m: self.error(m, lineno))
                self.program.data += (value & ((1 << width * 8) - 1)).to_bytes(width, "little")
        elif name == ".zero":
            if self.section != "data":
                raise self.error(".zero outside .data", lineno)
            count = _parse_int(arg, self.parser.defsym, lambda m: self.error(m, lineno))
            if count < 0:
                raise self.error(".zero expects a non-negative count", lineno)
            self.program.data += bytes(count)
        else:
            raise self.error(f"unknown directive {name!r}", lineno)

    def instruction(self, text, lineno):
        if self.section != "text":
            raise self.error("instruction outside .text", lineno)
        if self.current is None:
            raise self.error("instruction before any function label", lineno)

        tokens = text.split()
        annotations = set()
        while tokens and tokens[-1].startswith("!"):
            word = tokens.pop()[1:]
            if word not in ANNOTATIONS:
                raise self.error(f"unknown annotation !{word}", lineno)
            annotations.add(word)
        text = " ".join(tokens)
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""

        frag = self.current
        base_index = len(frag.insns)
        calltype = self.pending_calltype
        self.pending_calltype = None

        if mnemonic in PSEUDO_MNEMONICS:
            if annotations & {"unsigned", "optout"}:
                raise self.error(
                    "!unsigned/!optout require a bare arithmetic instruction", lineno)
            self.program.lineage_count += 1
            lineage = self.program.lineage_count
            try:
                expansion = expand_pseudo(text, lineage=lineage, defsym=self.parser.defsym)
            except codec.OperandRange as exc:
                raise self.error(str(exc), lineno) from None
            except ParseError as exc:  # expand_pseudo knows no line
                raise self.error(exc.message, lineno) from None
            for member in expansion.insns:
                member.annotations = frozenset(annotations)
            if expansion.relocations:
                pair_id = self._next_pair_id()
                for reloc in expansion.relocations:
                    frag.relocations.append(Relocation(
                        kind=reloc.kind,
                        offset=4 * base_index + reloc.offset,
                        target=reloc.target,
                        pair_id=pair_id,
                    ))
            if calltype is not None:
                for member in expansion.insns:
                    if member.insn.mnemonic == "jalr":
                        member.calltype = calltype
            frag.insns.extend(expansion.insns)
            if expansion.branch_target is not None:
                self.branch_refs.append((frag, base_index, expansion.branch_target, lineno))
            return

        if mnemonic not in codec.MNEMONICS:
            raise self.error(f"unknown mnemonic {mnemonic!r}", lineno)
        if annotations & {"unsigned", "optout"} and mnemonic not in codec.ADDSUB_MNEMONICS:
            raise self.error(
                f"!unsigned/!optout do not apply to {mnemonic!r}", lineno)
        insn, target = self.parser.parse_instruction(mnemonic, operand_text, lineno)
        try:
            codec.encode(insn)  # operand-range errors belong to this line
        except codec.OperandRange as exc:
            raise self.error(str(exc), lineno) from None
        tagged = TaggedInsn(insn=insn, annotations=frozenset(annotations),
                            calltype=calltype)
        frag.insns.append(tagged)
        if target is not None:
            self.branch_refs.append((frag, base_index, target, lineno))

    _pair_counter = 0

    def _next_pair_id(self):
        self._pair_counter += 1
        return self._pair_counter

    def _note_address_taken(self, symbol):
        for frag in self.program.fragments:
            if frag.name == symbol:
                frag.address_taken = True

    # -- pass C: local branch resolution ----------------------------------
    def resolve_local_branches(self):
        frag_names = {f.name for f in self.program.fragments}
        for frag, index, symbol, lineno in self.branch_refs:
            locals_ = self.local_labels[frag.name]
            if symbol in locals_ or symbol == frag.name:
                target_index = locals_.get(symbol, 0)
                if target_index == len(frag.insns):
                    raise self.error(f"label {symbol!r} ends {frag.name!r}: no instruction "
                                     "follows it to branch to", lineno)
                delta = 4 * (target_index - index)
                old = frag.insns[index].insn
                frag.insns[index].insn = replace(old, imm=delta)
            elif symbol in frag_names:
                kind = "Jal" if frag.insns[index].insn.mnemonic == "jal" else "Branch"
                frag.relocations.append(Relocation(kind, 4 * index, symbol))
            elif symbol in self.program.data_symbols:
                raise self.error(f"cannot branch to data symbol {symbol!r}", lineno)
            else:
                raise UndefinedSymbol(
                    f"{self.filename}:{lineno}: undefined label {symbol!r}")
        # la against a data or later-defined text symbol: recheck address_taken
        for frag in self.program.fragments:
            lo_by_pair = {}  # pair_id -> the first Lo12I of the pair
            for reloc in frag.relocations:
                if reloc.kind == "Lo12I":
                    lo_by_pair.setdefault(reloc.pair_id, reloc)
            for reloc in frag.relocations:
                if reloc.kind == "Hi20" and reloc.target in frag_names:
                    lo = lo_by_pair.get(reloc.pair_id)
                    if lo is not None and frag.insns[lo.offset // 4].insn.mnemonic == "addi":
                        self._note_address_taken(reloc.target)

    def finish_symbols(self):
        if not self.program.fragments:
            raise ParseError("no code in input", filename=self.filename)
        if self.entry_requests:
            entry = self.entry_requests[0]
            if entry not in {f.name for f in self.program.fragments}:
                raise UndefinedSymbol(f".entry symbol {entry!r} is not a function")
            self.program.entry = entry
            self.program.entry_explicit = True
        else:
            self.program.entry = self.program.fragments[0].name
        declared_names = set(self.declared)
        defined = {f.name for f in self.program.fragments} | set(self.program.data_symbols)
        for name in declared_names - defined:
            raise UndefinedSymbol(f"declared symbol {name!r} is never defined")


def assemble(source: str, defsym=None, filename: str = "<source>") -> Program:
    """Assemble source text into a Program (pure function of its inputs)."""
    return _Assembler(defsym=defsym, filename=filename).run(source)


def merge_programs(programs) -> Program:
    """Combine per-file programs into one link unit."""
    merged = Program()
    explicit = []
    for prog in programs:
        data_base = len(merged.data)
        for frag in prog.fragments:
            if any(f.name == frag.name for f in merged.fragments) \
                    or frag.name in merged.data_symbols:
                raise ParseError(f"duplicate symbol {frag.name!r} across inputs")
            merged.fragments.append(frag)
        for name, off in prog.data_symbols.items():
            if name in merged.data_symbols \
                    or any(f.name == name for f in merged.fragments):
                raise ParseError(f"duplicate symbol {name!r} across inputs")
            merged.data_symbols[name] = data_base + off
        merged.data += prog.data
        merged.lineage_count += prog.lineage_count
        if prog.entry_explicit:
            explicit.append(prog.entry)
    if len(set(explicit)) > 1:
        raise ParseError(f"multiple .entry symbols across inputs: {sorted(set(explicit))}")
    if explicit:
        merged.entry = explicit[0]
        merged.entry_explicit = True
    elif merged.fragments:
        merged.entry = merged.fragments[0].name
    return merged


def assemble_files(paths, defsym=None) -> Program:
    programs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            programs.append(assemble(handle.read(), defsym=defsym, filename=str(path)))
    return merge_programs(programs)


# ---------------------------------------------------------------------------
# Disassembly (round-trip support)

_XREG = [f"x{i}" for i in range(32)]


def format_insn(insn: Insn) -> str:
    """Render an instruction in the accepted grammar; local branch targets
    appear as literal byte deltas."""
    mn = insn.mnemonic
    if mn in ("lui", "auipc"):
        return f"{mn} {_XREG[insn.rd]}, {insn.imm:#x}"
    if mn == "jal":
        return f"jal {_XREG[insn.rd]}, {insn.imm}"
    if mn == "jalr":
        return f"jalr {_XREG[insn.rd]}, {_XREG[insn.rs1]}, {insn.imm}"
    if mn in codec.BRANCH_MNEMONICS:
        return f"{mn} {_XREG[insn.rs1]}, {_XREG[insn.rs2]}, {insn.imm}"
    if mn in codec.LOAD_MNEMONICS:
        return f"{mn} {_XREG[insn.rd]}, {insn.imm}({_XREG[insn.rs1]})"
    if mn in codec.STORE_MNEMONICS:
        return f"{mn} {_XREG[insn.rs2]}, {insn.imm}({_XREG[insn.rs1]})"
    if mn in ("ecall", "ebreak"):
        return mn
    fmt = codec._ISA[mn][0]
    if fmt == codec._R:
        return f"{mn} {_XREG[insn.rd]}, {_XREG[insn.rs1]}, {_XREG[insn.rs2]}"
    return f"{mn} {_XREG[insn.rd]}, {_XREG[insn.rs1]}, {insn.imm}"


def disassemble_fragment(fragment: Fragment) -> str:
    """Fragment back to source text; reassembling yields identical words."""
    lines = [f"{fragment.name}:"]
    lines += [f"    {format_insn(ti.insn)}" for ti in fragment.insns]
    return "\n".join(lines) + "\n"
