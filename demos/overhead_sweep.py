#!/usr/bin/env python3
"""Desk-scale overhead sweep over a generated corpus.

For each lui coverage level, diff-run every corpus program (build it
untagged and tagged, check the two runs end in identical architectural
state) and aggregate the dynamic and static overheads, with and without
control-flow labels.
"""

from rvtag import make_config
from rvtag.cli import diff_one
from rvtag.corpus import generate_corpus

SEED = 1234
COUNT = 25


def overhead(rows, what):
    """Percent growth of the summed tagged figure over the summed baseline."""
    base = sum(row[f"baseline_{what}"] for row in rows)
    return (sum(row[f"tagged_{what}"] for row in rows) - base) * 100.0 / base


print(f"corpus: {COUNT} generated programs, seed {SEED}\n")
programs = generate_corpus(SEED, COUNT)

print(f"{'configuration':24} {'dyn overhead':>12} {'text overhead':>14}")
for coverage in (3, 7, 15):
    for labelled in (False, True):
        config = make_config(carrier="lui", coverage=coverage,
                             policy="cfi" if labelled else "none")
        rows = [diff_one(f"p{i}", [text], config, max_insns=10 ** 8,
                         cfi_label_direct_calls=labelled)
                for i, text in enumerate(programs)]
        name = f"lui c{coverage}" + (" + labels" if labelled else "")
        print(f"{name:24} {overhead(rows, 'dynamic'):>11.2f}% "
              f"{overhead(rows, 'text_bytes'):>13.2f}%")

print("\nevery pair of runs ended in identical registers, memory, and exit code")
