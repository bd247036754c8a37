"""rvtag: a self-contained RISC-V instruction-tagging toolchain.

Assembles an RV64 subset, interleaves configurable-width metadata tags
encoded as architectural NOPs, links with tag-aware relocation handling,
and executes the result in a bundled emulator that either ignores tags
(backward compatibility) or enforces tag policies.
"""

from .codec import Insn, TagCarrier, decode, encode
from .emitlink import Image, link, read_image, write_image
from .emulator import ExecCounters, MachineState, PolicyState, PolicyViolation, run
from .errors import BuildError, RvtagError
from .frontend import Fragment, Program, Relocation, TaggedInsn, assemble
from .instrument import (
    cfi_label_value,
    get_tag,
    insert_label,
    insert_labels,
    pass_cfi,
    pass_coverage,
    pass_unarith,
    propagate_lineage,
    set_tag,
)
from .pipeline import apply_policy, assemble_sources, build_image, build_variants
from .tagplan import TagConfig, load_config, loads_config, make_config, remap_offset

__version__ = "0.1.0"

__all__ = [
    "BuildError",
    "ExecCounters",
    "Fragment",
    "Image",
    "Insn",
    "MachineState",
    "PolicyState",
    "PolicyViolation",
    "Program",
    "Relocation",
    "RvtagError",
    "TagCarrier",
    "TagConfig",
    "TaggedInsn",
    "apply_policy",
    "assemble",
    "assemble_sources",
    "build_image",
    "build_variants",
    "cfi_label_value",
    "decode",
    "encode",
    "get_tag",
    "insert_label",
    "insert_labels",
    "link",
    "load_config",
    "loads_config",
    "make_config",
    "pass_cfi",
    "pass_coverage",
    "pass_unarith",
    "propagate_lineage",
    "read_image",
    "remap_offset",
    "run",
    "set_tag",
    "write_image",
]
