"""Two-pass assembler from the textual RV64 subset into the program model.

One assembler takes all the files of a link unit in order.  Each file starts
afresh in .text with no current function, no pending .calltype and its own
.globl/.internal/.entry declarations, which it must define itself.  The rest
is unit-wide: fragments, local labels, data (bounded by the stack bottom),
lineage and HI/LO pair ids, and branch references, resolved once the last
file is in, so a branch, jump, call or `la` can name a function of any file.

Each file's lines are split once into (line number, labels, statement); a
line with neither `#` nor `:` is its stripped statement, with no labels.
That loop also lists the directive lines, the only lines that pass A
(declarations) reads; pass B (fragments) reads them all.  Pass B's line
loop is the one place a statement error gets its `FILE:LINE:1:`: the
methods under it raise a bare ParseError.  Errors found after the last file
name the line of the branch, call, declaration or .entry they concern.

STATEMENTS, built from codec's _ISA, is the one statement table: a real
mnemonic maps to its operand count, the operand parser of its shape, its
codec encoder, whether it is a pc-relative transfer or an add/sub, and its
format's immediate bounds from codec's _IMM_BOUNDS (lo, hi, and 1 where the
immediate must be even).  A real instruction is one lookup; anything else is
a pseudo-instruction or an unknown mnemonic.  A register operand comes from
REGISTER_NAMES, so it is in 0..31, and the encoder runs only to raise the
OperandRange of an immediate outside its bounds.  Of the pseudo-instructions
only `j` with a literal delta can be out of range.

Grammar (one statement per line, `#` comments):

    label:                 plain identifiers; a label declared with .globl,
                           .internal, or .entry starts a new function
                           fragment, as does the first label of a file;
                           any other label is local to the current fragment
    .globl NAME            export NAME (fragment boundary marker)
    .internal NAME         mark NAME internal (exempt from entry labels)
    .entry NAME            program entry point (default: first fragment)
    .signature "SIG"       canonical signature of the current function
    .calltype "SIG"        signature annotation for the next statement, which
                           must have a jalr word: jalr, jr, ret or call
    .text / .data          section switch
    .word V[, V...]        32-bit data values, signed or unsigned (.data only)
    .dword V[, V...]       64-bit data values, signed or unsigned (.data only)
    .zero N                N zero bytes (.data only)

Instruction operands accept decimal/hex immediates, `!unsigned`, `!optout`
and `!count` trailing annotations, and `--defsym`-style symbol overrides for
immediate identifiers.  Branch/jump targets are label names or literal byte
deltas, which must be multiples of 4.  Pseudo-instructions
call/j/jr/ret/li/mv/nop/la expand with a shared lineage id per source line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import codec
from .codec import Insn
from .errors import BuildError
from .tagplan import DATA_BASE, STACK_SIZE, STACK_TOP


class ParseError(BuildError):
    def __init__(self, message, line=0, filename="<source>"):
        super().__init__(f"{filename}:{line}:1: {message}")
        self.message = message
        self.line = line
        self.filename = filename


class UndefinedSymbol(BuildError):
    """A referenced label or symbol has no definition."""


REGISTER_NAMES = {}
for _i in range(32):
    REGISTER_NAMES[f"x{_i}"] = _i
for _i, _name in enumerate(
    "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 a6 a7 "
    "s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6".split()
):
    REGISTER_NAMES[_name] = _i
REGISTER_NAMES["fp"] = 8
# An operand parser looks a register up in _REG directly: instruction turns
# the KeyError of a bad one into its ParseError.
_REG = REGISTER_NAMES

_IDENT = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")

ANNOTATIONS = ("unsigned", "optout", "count")

PSEUDO_MNEMONICS = frozenset({"call", "j", "jr", "ret", "li", "mv", "nop", "la"})
_UNSIGNED_ANNOTATIONS = frozenset({"unsigned", "optout"})


@dataclass(slots=True)
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


def _not_a(token: str, what: str) -> ParseError:
    """The error for an operand token that is not `what`; the token is
    quoted with its whitespace runs collapsed, as the statement is."""
    return ParseError(f"{' '.join(token.split())!r} is not {what}")


def _parse_int(token: str, defsym: dict) -> int:
    try:
        return int(token, 0)
    except ValueError:
        pass
    if token in defsym:
        return defsym[token]
    raise _not_a(token, "a number or defined symbol")


def _branch_target(token):
    """Return (imm, symbol): numeric deltas resolve now, names later."""
    try:
        return int(token, 0), None
    except ValueError:
        pass
    if not _IDENT.match(token):
        raise _not_a(token, "a label or byte offset")
    return 0, token


_MEM_OPERAND = re.compile(r"^(-?[0-9][xX]?[0-9a-fA-F]*|[A-Za-z_.$][\w.$]*)?\((\w+)\)$")


def _mem_operand(token, defsym):
    match = _MEM_OPERAND.match(token)
    if not match:
        raise _not_a(token, "an offset(base) operand")
    off_text, base = match.groups()
    offset = _parse_int(off_text, defsym) if off_text else 0
    return offset, _REG[base]


def _load(ops, defsym):  # offset(base) is checked first, as for stores
    imm, rs1 = _mem_operand(ops[1], defsym)
    return _REG[ops[0]], rs1, 0, imm, None


def _store(ops, defsym):
    imm, rs1 = _mem_operand(ops[1], defsym)
    return 0, rs1, _REG[ops[0]], imm, None


# Per operand shape: (operand count, parse(ops, defsym) -> (rd, rs1, rs2,
# imm, target)), where a symbolic branch target comes back with imm 0.
_RRI = (3, lambda ops, defsym: (_REG[ops[0]], _REG[ops[1]], 0,
                                _parse_int(ops[2], defsym), None))
_FORMAT_OPERANDS = {
    codec._R: (3, lambda ops, defsym: (_REG[ops[0]], _REG[ops[1]], _REG[ops[2]], 0, None)),
    codec._I: _RRI,
    codec._SHIFT: _RRI,
    codec._U: (2, lambda ops, defsym: (_REG[ops[0]], 0, 0, _parse_int(ops[1], defsym), None)),
    codec._J: (2, lambda ops, defsym: (_REG[ops[0]], 0, 0, *_branch_target(ops[1]))),
    codec._B: (3, lambda ops, defsym: (0, _REG[ops[0]], _REG[ops[1]], *_branch_target(ops[2]))),
    codec._S: (2, _store),
    codec._SYS: (0, lambda ops, defsym: (0, 0, 0, 0, None)),
}

# The one statement table: real mnemonic -> (operand count, operand parser,
# encoder, pc-relative transfer?, add/sub?, immediate lo, hi, even mask).
STATEMENTS = {
    mnemonic: ((2, _load) if mnemonic in codec.LOAD_MNEMONICS else _FORMAT_OPERANDS[spec[0]])
    + (codec.ENCODERS[mnemonic], mnemonic in codec.TRANSFER_MNEMONICS,
       mnemonic in codec.ADDSUB_MNEMONICS) + codec._IMM_BOUNDS.get(spec[0], (0, 0, 0))
    for mnemonic, spec in codec._ISA.items()}


def _expand(mnemonic, ops, lineage, defsym):
    """(insns, relocations, branch target) of one pseudo-instruction."""
    if mnemonic == "li":
        if len(ops) != 2:
            raise ParseError("li expects rd, value")
        return _expand_li(_REG[ops[0]], _parse_int(ops[1], defsym), lineage), [], None
    if mnemonic == "call":
        if len(ops) != 1 or not _IDENT.match(ops[0]):
            raise ParseError("call expects a symbol")
        pair = [TaggedInsn(Insn("auipc", 5), None, lineage),    # t0 <- HI(target)
                TaggedInsn(Insn("jalr", 1, 5), None, lineage)]  # ra <- pc+4, LO(target)
        return pair, [Relocation("Hi20", 0, ops[0]), Relocation("Lo12I", 4, ops[0])], None
    if mnemonic == "la":
        if len(ops) != 2 or not _IDENT.match(ops[1]):
            raise ParseError("la expects rd, symbol")
        rd = _REG[ops[0]]
        pair = [TaggedInsn(Insn("auipc", rd), None, lineage),
                TaggedInsn(Insn("addi", rd, rd), None, lineage)]
        return pair, [Relocation("Hi20", 0, ops[1]), Relocation("Lo12I", 4, ops[1])], None
    target = None
    if mnemonic == "mv":
        if len(ops) != 2:
            raise ParseError("mv expects rd, rs")
        insn = Insn("addi", _REG[ops[0]], _REG[ops[1]])
    elif mnemonic == "j":
        if len(ops) != 1:
            raise ParseError("j expects a target")
        imm, target = _branch_target(ops[0])
        insn = Insn("jal", 0, 0, 0, imm)
    elif mnemonic == "jr":
        if len(ops) != 1:
            raise ParseError("jr expects rs")
        insn = Insn("jalr", 0, _REG[ops[0]])
    elif ops:  # nop, ret
        raise ParseError(f"{mnemonic} takes no operands")
    else:
        insn = Insn("addi") if mnemonic == "nop" else Insn("jalr", 0, 1)
    return [TaggedInsn(insn, None, lineage)], [], target


def _expand_li(rd, value, lineage):
    if -2048 <= value <= 2047:
        return [TaggedInsn(Insn("addi", rd, 0, 0, value), None, lineage)]
    if not -(1 << 31) <= value <= (1 << 31) - 1:
        raise codec.OperandRange(f"li: {value:#x} does not fit 32 signed bits")
    hi, lo = codec.hi_lo(value)
    return [
        TaggedInsn(Insn("lui", rd, 0, 0, hi), None, lineage),
        TaggedInsn(Insn("addi", rd, rd, 0, lo), None, lineage),
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
    """The assembler of one link unit; assemble_file takes its files in order."""

    def __init__(self, defsym=None):
        self.defsym = defsym or {}
        self.program = Program()
        self.fragments = {}         # name -> Fragment
        self.local_labels = {}      # fragment name -> {label: insn index}
        self.branch_refs = []       # (fragment, insn index, symbol, filename, lineno)
        self.call_refs = []         # (symbol, filename, lineno) of each call
        self.pair_count = 0         # HI/LO pairs so far; the last one's id
        self.file_checks = []       # (filename, (.entry, lineno) or None, {undefined: lineno})

    # -- pass A: directive scan ------------------------------------------
    def scan_declarations(self, directives):
        """Fill self.declared and self.undefined from the file's (line,
        directive text) pairs; return its (.entry symbol, line) pairs."""
        entries = []
        for lineno, text in directives:
            parts = text.split(None, 1)
            directive = parts[0]
            arg = parts[1].strip() if len(parts) > 1 else ""
            if directive in (".globl", ".internal", ".entry"):
                if not _IDENT.match(arg):
                    raise ParseError(f"{directive} expects a symbol name", lineno, self.filename)
                self.declared.setdefault(arg, set()).add(directive[1:])
                self.undefined.setdefault(arg, lineno)
                if directive == ".entry":
                    entries.append((arg, lineno))
        return entries

    # -- pass B: build fragments -----------------------------------------
    def assemble_file(self, source, filename):
        self.filename = filename
        self.section = "text"
        self.current = None         # the Fragment that labels and code go to
        self.pending_calltype = None
        self.declared = {}          # name -> set of markers from directives
        self.undefined = {}         # declared name not yet defined -> its first line
        lines, directives = [], []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            # a line with no comment and no label is its statement
            labels, text = _split_labels(raw) if "#" in raw or ":" in raw else ((), raw.strip())
            lines.append((lineno, labels, text))
            if text.startswith("."):
                directives.append((lineno, text))
        entries = self.scan_declarations(directives)
        for name, lineno in entries:  # the first .entry naming another symbol
            if name != entries[0][0]:
                raise ParseError(f"multiple .entry symbols: {sorted({n for n, _ in entries})}",
                                 lineno, filename)
        if entries:
            entry, lineno = entries[0]
            if self.program.entry_explicit and self.program.entry != entry:
                raise ParseError(f"multiple .entry symbols: "
                                 f"{sorted([self.program.entry, entry])}", lineno, filename)
            self.program.entry, self.program.entry_explicit = entry, True
        try:
            for lineno, labels, text in lines:
                self.lineno = lineno  # the line of any branch reference it records
                for name in labels:
                    self.define_label(name)
                if text.startswith("."):
                    self.directive(text)
                elif text:
                    self.instruction(text)
        except (ParseError, codec.OperandRange) as exc:
            message = exc.message if isinstance(exc, ParseError) else str(exc)
            raise ParseError(message, lineno, filename) from None
        if self.pending_calltype is not None:
            raise ParseError("the file ends before a call site takes this .calltype",
                             self.calltype_line, filename)
        if self.current is None:
            raise ParseError("no code in input", filename=filename)
        self.file_checks.append((filename, entries[0] if entries else None, self.undefined))

    def define_label(self, name):
        if self.section == "data":
            if name in self.program.data_symbols:
                raise ParseError(f"duplicate data symbol {name!r}")
            if name in self.fragments:
                raise ParseError(f"{name!r} is already a function")
            self.program.data_symbols[name] = len(self.program.data)
            self.undefined.pop(name, None)
            return
        markers = self.declared.get(name, set())
        starts_fragment = bool(markers) or self.current is None
        if starts_fragment:
            if name in self.fragments:
                raise ParseError(f"duplicate function {name!r}")
            if name in self.program.data_symbols:
                raise ParseError(f"{name!r} is already a data symbol")
            frag = Fragment(name, exported="globl" in markers, internal="internal" in markers)
            if frag.exported and frag.internal:
                raise ParseError(f"{name!r} is both .globl and .internal")
            self.program.fragments.append(frag)
            self.fragments[name] = frag
            self.current = frag
            self.local_labels[name] = {}
            self.undefined.pop(name, None)
        else:
            labels = self.local_labels[self.current.name]
            if name in labels:
                raise ParseError(f"duplicate label {name!r}")
            labels[name] = len(self.current.insns)

    def directive(self, text):
        parts = text.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name in (".globl", ".internal", ".entry"):
            return  # handled in pass A
        if name == ".text":
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name in (".signature", ".calltype"):
            match = _STRING_ARG.match(arg)
            if not match:
                raise ParseError(f"{name} expects a quoted string")
            if name == ".calltype":
                self.pending_calltype, self.calltype_line = match.group(1), self.lineno
            elif self.current is None or self.section != "text":
                raise ParseError(".signature outside a function")
            else:
                self.current.signature = match.group(1)
        elif name in (".word", ".dword", ".zero") and self.section != "data":
            raise ParseError(f"{name} outside .data")
        elif name in (".word", ".dword"):
            width = 4 if name == ".word" else 8
            values = [_parse_int(token.strip(), self.defsym)
                      for token in (arg.split(",") if arg else ())]
            self._data_room(name, width * len(values))
            for value in values:
                if not -1 << 8 * width - 1 <= value < 1 << 8 * width:
                    raise ParseError(f"{name}: {value:#x} does not fit {8 * width} bits")
                self.program.data += value.to_bytes(width, "little", signed=value < 0)
        elif name == ".zero":
            count = _parse_int(arg, self.defsym)
            if count < 0:
                raise ParseError(".zero expects a non-negative count")
            self._data_room(name, count)
            self.program.data += bytes(count)
        else:
            raise ParseError(f"unknown directive {name!r}")

    def _data_room(self, name, size):
        """Reject, before it is allocated, data that ends past the stack bottom."""
        if DATA_BASE + len(self.program.data) + size > STACK_TOP - STACK_SIZE:
            raise ParseError(f"{name} takes data past the stack bottom "
                             f"{STACK_TOP - STACK_SIZE:#x}")

    def instruction(self, text):
        if self.section != "text":
            raise ParseError("instruction outside .text")
        if self.current is None:
            raise ParseError("instruction before any function label")

        annotations = frozenset()
        if "!" in text:
            tokens = text.split()
            found = set()
            while tokens and tokens[-1].startswith("!"):
                word = tokens.pop()[1:]
                if word not in ANNOTATIONS:
                    raise ParseError(f"unknown annotation !{word}")
                found.add(word)
            if not tokens:
                raise ParseError("annotations without an instruction")
            text = " ".join(tokens)
            annotations = frozenset(found)
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        ops = [op.strip() for op in parts[1].split(",")] if len(parts) > 1 else []
        frag = self.current
        calltype = self.pending_calltype
        if calltype is not None:
            if mnemonic not in ("jalr", "jr", "ret", "call"):
                raise ParseError(f".calltype of line {self.calltype_line} must annotate "
                                 f"a jalr, jr, ret or call, not {mnemonic!r}")
            self.pending_calltype = None
        spec = STATEMENTS.get(mnemonic)
        if spec is not None:
            arity, parse, encode, transfer, addsub, lo, hi, even = spec
            if annotations and not addsub and annotations & _UNSIGNED_ANNOTATIONS:
                raise ParseError(f"!unsigned/!optout do not apply to {mnemonic!r}")
            if len(ops) != arity:
                raise ParseError(f"{mnemonic} expects {arity} operand(s), got {len(ops)}")
            try:
                rd, rs1, rs2, imm, target = parse(ops, self.defsym)
            except KeyError as exc:
                raise _not_a(exc.args[0], "a register") from None
            if not lo <= imm <= hi or imm & even:  # the encoder words the range error
                encode(rd, rs1, rs2, imm)
            # no instruction is compressed, so none can sit at a half-word
            # target; a symbolic target has imm 0
            if transfer and imm % 4:
                raise ParseError(f"{mnemonic}: offset {imm} is not a multiple of 4")
            if target is not None:
                self.branch_refs.append((frag, len(frag.insns), target, self.filename,
                                         self.lineno))
            frag.insns.append(TaggedInsn(Insn(mnemonic, rd, rs1, rs2, imm), None, None, False,
                                         annotations, calltype))
            return
        if mnemonic not in PSEUDO_MNEMONICS:
            raise ParseError(f"unknown mnemonic {mnemonic!r}")
        if annotations & _UNSIGNED_ANNOTATIONS:
            raise ParseError("!unsigned/!optout require a bare arithmetic instruction")
        self.program.lineage_count += 1
        try:
            insns, relocations, target = _expand(mnemonic, ops, self.program.lineage_count,
                                                 self.defsym)
        except KeyError as exc:
            raise _not_a(exc.args[0], "a register") from None
        if mnemonic == "j":  # any other expansion is in range by construction
            codec.encode_fields("jal", 0, 0, 0, insns[0].insn.imm)
        if annotations or calltype is not None:
            for member in insns:
                member.annotations = annotations
                if member.insn.mnemonic == "jalr":
                    member.calltype = calltype
        imm = insns[-1].insn.imm  # j's literal delta; 0 for a symbolic target
        if imm % 4 and insns[-1].insn.mnemonic in codec.TRANSFER_MNEMONICS:
            raise ParseError(f"{mnemonic}: offset {imm} is not a multiple of 4")
        base_index = len(frag.insns)
        if relocations:
            self.pair_count += 1
            for reloc in relocations:
                reloc.offset += 4 * base_index
                reloc.pair_id = self.pair_count
            frag.relocations += relocations
        if target is not None:
            self.branch_refs.append((frag, base_index, target, self.filename, self.lineno))
        if mnemonic == "call":
            self.call_refs.append((relocations[0].target, self.filename, self.lineno))
        frag.insns += insns

    # -- pass C: branch resolution and address-taken marking, unit-wide ----
    def finish(self):
        if not self.program.fragments:
            raise ParseError("the link unit has no input")
        for frag, index, symbol, filename, lineno in self.branch_refs:
            locals_ = self.local_labels[frag.name]
            if symbol in locals_ or symbol == frag.name:
                target_index = locals_.get(symbol, 0)
                if target_index == len(frag.insns):
                    raise ParseError(f"label {symbol!r} ends {frag.name!r}: no instruction "
                                     "follows it to branch to", lineno, filename)
                old = frag.insns[index].insn
                frag.insns[index].insn = Insn(old.mnemonic, old.rd, old.rs1, old.rs2,
                                              4 * (target_index - index))
            elif symbol in self.fragments:
                kind = "Jal" if frag.insns[index].insn.mnemonic == "jal" else "Branch"
                frag.relocations.append(Relocation(kind, 4 * index, symbol))
            elif symbol in self.program.data_symbols:
                raise ParseError(f"cannot branch to data symbol {symbol!r}", lineno, filename)
            else:
                raise UndefinedSymbol(f"{filename}:{lineno}:1: undefined label {symbol!r}")
        for symbol, filename, lineno in self.call_refs:
            if symbol in self.program.data_symbols:
                raise ParseError(f"cannot call data symbol {symbol!r}", lineno, filename)
        # call's LO half sits at a jalr, la's at an addi: la takes the address
        for frag in self.program.fragments:
            for reloc in frag.relocations:
                if (reloc.kind == "Lo12I" and reloc.target in self.fragments
                        and frag.insns[reloc.offset // 4].insn.mnemonic == "addi"):
                    self.fragments[reloc.target].address_taken = True
        for filename, entry, undefined in self.file_checks:
            if entry is not None and (entry[0] not in self.fragments or entry[0] in undefined):
                raise UndefinedSymbol(
                    f"{filename}:{entry[1]}:1: .entry symbol {entry[0]!r} is not a function")
            for name in sorted(undefined):
                raise UndefinedSymbol(
                    f"{filename}:{undefined[name]}:1: declared symbol {name!r} is never defined")
        if not self.program.entry_explicit:
            self.program.entry = self.program.fragments[0].name
        return self.program


def assemble_unit(files, defsym=None) -> Program:
    """Assemble the (source, filename) pairs of one link unit into a Program."""
    assembler = _Assembler(defsym)
    for source, filename in files:
        assembler.assemble_file(source, filename)
    return assembler.finish()


def assemble(source: str, defsym=None, filename: str = "<source>") -> Program:
    """Assemble one source text into a Program: a link unit of one file."""
    return assemble_unit([(source, filename)], defsym)
