import argparse
import copy
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rvtag import cli, emulator
from rvtag.cli import EquivalenceFailure, compare_states, main
from rvtag.emitlink import FormatError, read_image, write_image
from rvtag.emulator import PolicyViolation
from rvtag.emulator import run as run_image
from rvtag.errors import RvtagError
from rvtag.pipeline import build_image
from rvtag.tagplan import ConfigError, load_config, loads_config, make_config

SUM_SRC = (
    ".globl main\n.entry main\nmain:\n"
    "    li a0, 0\n"
    "    li t1, 1\n"
    "    li t2, 10\n"
    "acc:\n"
    "    add a0, a0, t1\n"
    "    addi t1, t1, 1\n"
    "    bge t2, t1, acc\n"
    "    li a7, 93\n"
    "    ecall\n"
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "prog.s").write_text(SUM_SRC)
    (tmp_path / "tags.conf").write_text("carrier = lui\ncoverage = 3\n")
    (tmp_path / "cfi.conf").write_text("carrier = lui\ncoverage = 3\npolicy = cfi\n")
    (tmp_path / "cov.conf").write_text("carrier = lui\ncoverage = 7\npolicy = coverage\n")
    return tmp_path


def test_assemble_summary(workspace, capsys):
    assert main(["assemble", str(workspace / "prog.s")]) == 0
    out = capsys.readouterr().out
    assert "main" in out and "entry" in out
    assert main(["assemble", "--json", str(workspace / "prog.s")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entry"] == "main"
    assert payload["fragments"][0]["instructions"] == 8


def test_build_produces_baseline_and_tagged(workspace, capsys):
    out = workspace / "prog.rvti"
    code = main(["build", "--config", str(workspace / "tags.conf"),
                 "--out", str(out), str(workspace / "prog.s")])
    assert code == 0
    table = capsys.readouterr().out
    assert "prog.base.rvti" in table and "prog.rvti" in table
    baseline = read_image(workspace / "prog.base.rvti")
    tagged = read_image(out)
    assert not baseline.tags_present and tagged.tags_present
    assert len(tagged.text) > len(baseline.text)


def test_build_cfi_emits_nolabel_variant(workspace):
    src = workspace / "api.s"
    src.write_text(
        ".globl main\n.entry main\nmain:\n"
        '    .signature "i64()"\n'
        "    li a7, 93\n"
        "    ecall\n"
    )
    out = workspace / "api.rvti"
    code = main(["build", "--config", str(workspace / "cfi.conf"),
                 "--out", str(out), str(src)])
    assert code == 0
    assert (workspace / "api.nolabels.rvti").exists()
    with_labels = read_image(out)
    without = read_image(workspace / "api.nolabels.rvti")
    assert len(with_labels.text) > len(without.text)


def test_build_no_tags_single_image(workspace, capsys):
    out = workspace / "base_only.rvti"
    code = main(["build", "--no-tags", "--config", str(workspace / "tags.conf"),
                 "--out", str(out), str(workspace / "prog.s")])
    assert code == 0
    assert read_image(out).tags_present is False


def test_build_rejects_na_coverage(workspace, capsys):
    (workspace / "bad.conf").write_text("carrier = lui\ncoverage = 31\n")
    code = main(["build", "--config", str(workspace / "bad.conf"),
                 "--out", str(workspace / "x.rvti"), str(workspace / "prog.s")])
    assert code == cli.EXIT_BUILD
    assert "coverage" in capsys.readouterr().err


def test_link_and_run(workspace, capsys):
    out = workspace / "sum.rvti"
    assert main(["link", "--config", str(workspace / "tags.conf"),
                 "--out", str(out), str(workspace / "prog.s")]) == 0
    assert main(["run", str(out)]) == 0
    run_output = capsys.readouterr().out
    assert "exit=55" in run_output
    assert main(["run", "--mode", "aware", str(out)]) == 0


def test_defsym_sets_a_symbol_and_rejects_a_malformed_one(workspace, capsys):
    src = workspace / "n.s"
    src.write_text(".globl main\n.entry main\nmain:\n    li a0, N\n    li a7, 93\n    ecall\n")
    out = workspace / "n.rvti"

    def link(*defsym):
        return main(["link", "--config", str(workspace / "tags.conf"), *defsym,
                     "--out", str(out), str(src)])

    assert link("--defsym", "N=72") == 0
    assert main(["run", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("exit=72 reason=exit ")
    for item, message in (("N", "--defsym expects name=value, got 'N'"),
                          ("N=x", "--defsym N: 'x' is not an integer")):
        assert link("--defsym", item) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"rvtag: {message}\n"


def test_build_json_rows(workspace, capsys):
    out = workspace / "prog.rvti"
    assert main(["build", "--json", "--config", str(workspace / "tags.conf"),
                 "--out", str(out), str(workspace / "prog.s")]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["image"] for row in rows] == [str(workspace / "prog.base.rvti"), str(out)]
    assert all(set(row) == {"image", "text_bytes", "growth_pct"} for row in rows)
    base, tagged = (read_image(row["image"]) for row in rows)
    assert [row["text_bytes"] for row in rows] == [len(base.text), len(tagged.text)]
    assert rows[0]["growth_pct"] == 0.0
    assert rows[1]["growth_pct"] == pytest.approx(100 * (len(tagged.text) / len(base.text) - 1))


def test_run_echoes_the_programs_stdout(workspace, capsys):
    src = workspace / "hi.s"
    src.write_text(".globl main\n.entry main\nmain:\n    li a7, 64\n"
                   "    li a0, 104\n    ecall\n    li a0, 105\n    ecall\n"
                   "    li a0, 0\n    li a7, 93\n    ecall\n")
    out = workspace / "hi.rvti"
    assert main(["link", "--config", str(workspace / "tags.conf"),
                 "--out", str(out), str(src)]) == 0
    capsys.readouterr()
    assert main(["run", str(out)]) == 0
    status, echoed = capsys.readouterr().out.split("\n", 1)
    assert status.startswith("exit=0 reason=exit ")
    assert echoed == "hi\n"


def test_env_config_fallback(workspace, monkeypatch):
    monkeypatch.setenv("RVTAG_CONFIG", str(workspace / "tags.conf"))
    out = workspace / "env.rvti"
    assert main(["link", "--out", str(out), str(workspace / "prog.s")]) == 0


def test_missing_config_is_usage_error(workspace, monkeypatch, capsys):
    monkeypatch.delenv("RVTAG_CONFIG", raising=False)
    code = main(["link", "--out", str(workspace / "x.rvti"),
                 str(workspace / "prog.s")])
    assert code == cli.EXIT_USAGE


def test_unknown_command_exits_1(workspace):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == cli.EXIT_USAGE


def test_enforce_clean_and_violating(workspace, capsys):
    clean_src = workspace / "ok.s"
    clean_src.write_text(
        "main:\n"
        "    li a0, 3\n"
        "    li a2, 2\n"
        "    sub a2, a0, a2 !unsigned\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    bad_src = workspace / "bad.s"
    bad_src.write_text(
        "main:\n"
        "    li a0, 2\n"
        "    li a2, 3\n"
        "    sub a2, a0, a2 !unsigned\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    (workspace / "un.conf").write_text(
        "carrier = lui\ncoverage = 3\npolicy = unarith\n")
    for name, expected in (("ok.s", 0), ("bad.s", cli.EXIT_POLICY)):
        out = workspace / f"{name}.rvti"
        assert main(["link", "--config", str(workspace / "un.conf"),
                     "--out", str(out), str(workspace / name)]) == 0
        assert main(["enforce", str(out)]) == expected
    err_out = capsys.readouterr().out
    assert "UnsignedOverflow" in err_out


def test_run_dump_coverage(workspace, capsys):
    src = workspace / "covprog.s"
    src.write_text(
        ".globl main\n.entry main\nmain:\n"
        "    li t1, 2\n"
        "again:\n"
        "    addi a0, a0, 1\n"
        "    addi t1, t1, -1\n"
        "    bne t1, x0, again\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    out = workspace / "covprog.rvti"
    dump = workspace / "coverage.json"
    assert main(["link", "--config", str(workspace / "cov.conf"),
                 "--out", str(out), str(src)]) == 0
    assert main(["run", "--mode", "aware", str(out),
                 "--dump-coverage", str(dump)]) == 0
    payload = json.loads(dump.read_text())
    assert set(payload) == {"cl", "ci", "bcf"}
    assert all(entry["count"] >= 0 for entry in payload["cl"])
    assert any(entry["count"] == 2 for entry in payload["cl"])
    for targets in payload["bcf"].values():
        for key, count in targets.items():
            assert key.startswith("0x") and count >= 1


def test_diff_run_files_and_generated(workspace, capsys):
    code = main(["diff-run", "--config", str(workspace / "tags.conf"),
                 "--generate", "5", "--seed", "99",
                 str(workspace / "prog.s")])
    assert code == 0
    out = capsys.readouterr().out
    assert "corpus seed: 99" in out
    assert "aggregate" in out
    assert "6/6 programs identical" in out


def test_diff_run_seed_without_generate_is_a_usage_error(workspace, capsys):
    # before, the seed was ignored and the inputs ran as if it were not given
    code = main(["diff-run", "--config", str(workspace / "tags.conf"), "--seed", "99",
                 str(workspace / "prog.s")])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rvtag: --seed seeds the generated corpus: pass --generate N too\n"


def test_diff_run_single_instruction_program(workspace, capsys):
    tiny = workspace / "tiny.s"
    tiny.write_text("main:\n    ecall\n")
    code = main(["diff-run", "--config", str(workspace / "tags.conf"),
                 "--json", str(tiny)])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    result = payload["results"][0]
    # one instruction plus its carrier: 2 fetch units against 1
    assert result["baseline_dynamic"] == 1
    assert result["tagged_dynamic"] == 2
    assert result["dynamic_overhead_pct"] == 100.0


def test_diff_run_cfi_reports_label_cost(workspace, capsys):
    code = main(["diff-run", "--config", str(workspace / "cfi.conf"),
                 "--json", "--cfi-label-direct-calls",
                 "--generate", "3", "--seed", "11"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    for result in payload["results"]:
        assert "nolabel_dynamic_overhead_pct" in result
        assert result["nolabel_tagged_dynamic"] <= result["tagged_dynamic"]
        assert result["nolabel_tagged_text_bytes"] <= result["tagged_text_bytes"]


def test_diff_run_json_report_round_trips(workspace, capsys, tmp_path):
    code = main(["diff-run", "--config", str(workspace / "tags.conf"),
                 "--json", "--generate", "3", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    json_start = out.index("{")
    payload = json.loads(out[json_start:])
    assert payload["schema"] == "rvtag-report-v1"
    assert payload["aggregate"]["programs"] == 3
    report_path = tmp_path / "report.json"
    report_path.write_text(out[json_start:])
    assert main(["report", str(report_path)]) == 0
    rendered = capsys.readouterr().out
    assert "aggregate" in rendered
    assert main(["report", "--json", str(report_path)]) == 0


def test_report_renders_the_labels_off_column_of_a_cfi_diff_run(workspace, capsys, tmp_path):
    argv = ["diff-run", "--config", str(workspace / "cfi.conf"), "--generate", "3", "--seed", "11"]
    assert main(argv) == 0
    table = capsys.readouterr().out.splitlines()[1:-1]  # less the seed and equivalence lines
    assert "no labels" in table[0]
    assert main(argv + ["--json"]) == 0
    report_path = tmp_path / "cfi.json"
    report_path.write_text(capsys.readouterr().out)
    assert main(["report", str(report_path)]) == 0
    assert capsys.readouterr().out.splitlines() == table


def test_diff_run_and_build_assemble_each_program_once(workspace, capsys, monkeypatch):
    from rvtag import frontend

    calls = []
    assemble_unit = frontend.assemble_unit
    monkeypatch.setattr(frontend, "assemble_unit",
                        lambda *args, **kwargs: calls.append(1) or assemble_unit(*args, **kwargs))
    assert main(["diff-run", "--config", str(workspace / "cfi.conf"),
                 "--generate", "3", "--seed", "11"]) == 0
    assert len(calls) == 3
    (workspace / "two.s").write_text(TWO_FUNCTIONS)
    assert main(["build", "--config", str(workspace / "cfi.conf"),
                 "--out", str(workspace / "two.rvti"), str(workspace / "two.s")]) == 0
    assert len(calls) == 4
    assert (workspace / "two.nolabels.rvti").exists()


def test_failed_cfi_build_leaves_only_the_baseline(tmp_path, capsys):
    (tmp_path / "cfi.conf").write_text("carrier = lui\ncoverage = 3\npolicy = cfi\n")
    (tmp_path / "prog.s").write_text("main:\n    la t0, f\n    jalr ra, t0, 0\n    ecall\n"
                                     '.globl f\nf:\n    .signature "i64()"\n    ret\n')
    assert main(["build", "--config", str(tmp_path / "cfi.conf"),
                 "--out", str(tmp_path / "prog.rvti"), str(tmp_path / "prog.s")]) == cli.EXIT_BUILD
    assert capsys.readouterr().err == (
        "rvtag: build error: computed call at main+0x8 has no .calltype annotation\n")
    assert sorted(path.name for path in tmp_path.glob("*.rvti")) == ["prog.base.rvti"]


def test_report_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "mystery-v9"}))
    assert main(["report", str(bad)]) == cli.EXIT_USAGE


def test_corrupted_tag_word_breaks_equivalence(workspace):
    """A carrier rewritten to lui x1,1 becomes architecturally visible."""
    config = make_config(carrier="lui", coverage=3)
    baseline = build_image(SUM_SRC, config, tagged=False)
    tagged = build_image(SUM_SRC, config, tagged=True)
    text = bytearray(tagged.text)
    # first word is main's first carrier: make it lui x1 with a nonzero payload
    text[0] |= 0x80   # rd low bit -> x1
    text[1] |= 0x10   # immediate bit 0
    corrupted = dataclasses.replace(tagged, text=bytes(text))
    base_state, _, _ = run_image(baseline, mode="compat")
    bad_state, _, _ = run_image(corrupted, mode="compat")
    divergence = compare_states(base_state, bad_state)
    assert divergence is not None and "x1" in divergence


def test_compare_states_names_the_first_differing_byte():
    image = build_image(SUM_SRC + ".data\nbuf:\n    .zero 8\n", make_config(), tagged=False)
    base_state, _, _ = run_image(image, mode="compat")
    other = copy.deepcopy(base_state)
    other.memory.data[3] = 7
    assert compare_states(base_state, other) == \
        f"memory[{image.data_base + 3:#x}]: baseline 0x0 != tagged 0x7"
    other = copy.deepcopy(base_state)
    other.memory.stack[-1] = 1
    assert compare_states(base_state, other) == \
        f"memory[{emulator.STACK_TOP - 1:#x}]: baseline 0x0 != tagged 0x1"


def test_diff_run_equivalence_failure_exit_code(workspace, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise EquivalenceFailure("prog: x5: baseline 0x1 != tagged 0x2")

    monkeypatch.setattr(cli, "diff_one", boom)
    code = main(["diff-run", "--config", str(workspace / "tags.conf"),
                 str(workspace / "prog.s")])
    assert code == cli.EXIT_EQUIV
    assert "equivalence failure" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "rvtag.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for verb in ("assemble", "build", "run", "diff-run", "enforce", "report"):
        assert verb in proc.stdout


def test_build_branch_to_fragment_end_label(workspace):
    # the label would land in the zero fill before g: a typed build error
    source = workspace / "end.s"
    source.write_text("main:\n    beq a0, a1, out\n    addi a0, a0, 1\nout:\n"
                      ".globl g\ng:\n    ecall\n")
    for config in ("tags.conf", "cov.conf"):
        proc = subprocess.run([sys.executable, "-m", "rvtag.cli", "build",
                               "--config", str(workspace / config),
                               "--out", str(workspace / "end.rvti"), str(source)],
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_BUILD == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ":2:1: label 'out' ends 'main'" in proc.stderr
        assert not (workspace / "end.rvti").exists()


def _parser_flags(parser):
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_cli_flags_exist():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    assert {"--config", "--max-insns", "--coverage-mode"} <= named
    assert named - _parser_flags(cli.build_parser()) == set()


# Call shapes in the Library section that name no module attribute.
LIBRARY_EXEMPT = {"pack(tags)"}  # the closure codec.tag_packer returns


def test_readme_library_names_exist():
    import rvtag
    from rvtag import codec, emitlink, tagplan

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)  # the code sample
    spans = {" ".join(span.split()) for span in re.findall(r"`([^`]+)`", section)}
    named = {span.split("(")[0] for span in spans - LIBRARY_EXEMPT}
    named = {name for name in named if re.fullmatch(r"[A-Za-z_][\w.]*", name)}
    assert {"codec.tag_packer", "codec.tag_reader", "Image.label_addrs", "link"} <= named

    def resolves(name):
        for namespace in (rvtag, codec, tagplan, emitlink):
            target = namespace
            for part in name.split("."):
                target = getattr(target, part, None)
            if target is not None:
                return True
        return False

    assert sorted(name for name in named if not resolves(name)) == []


TWO_FUNCTIONS = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    la t1, callee\n"
    '    .calltype "i64(i64)"\n'
    "    jalr ra, t1, 0\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".globl callee\ncallee:\n"
    '    .signature "i64(i64)"\n'
    "    addi a0, a0, 7\n"
    "    ret\n"
)


def test_run_image_with_a_malformed_carrier(workspace, capsys):
    # the carrier ahead of the entry label rewritten to `beq x0, x0, 0`: the
    # image still reads, since labels are found only when asked for; aware
    # mode rejects the tag slot as an image error, since no store can write
    # text, and compat mode spins to the fetch budget
    image = build_image(TWO_FUNCTIONS, make_config(carrier="lui", coverage=3, policy="cfi"))
    carrier = image.tag_regions[0].start
    assert image.label_addrs[0] == (carrier + 4, "cfl")
    offset = carrier - image.text_base
    text = image.text[:offset] + (0x00000063).to_bytes(4, "little") + image.text[offset + 4:]
    path = workspace / "bad.rvti"
    write_image(dataclasses.replace(image, text=text), path)
    assert read_image(path).text == text
    capsys.readouterr()
    for command in (["run", "--mode", "aware"], ["enforce"]):
        assert main([*command, str(path)]) == cli.EXIT_BUILD
        assert capsys.readouterr() == ("", f"rvtag: image error: tag slot {carrier:#x}: "
                                           "0x00000063 is not a lui x0 word\n"), command
    assert main(["run", "--mode", "compat", "--max-insns", "20000", str(path)]) == cli.EXIT_BUILD
    assert "run failed: fetched 20000 words without exiting" in capsys.readouterr().err
    # rewritten to `addi x0, x0, 0`, it runs clean in compat mode, but the
    # coverage map needs the labels, whose carrier is the image's fault: run
    # and enforce both fail before they run it, and print nothing, as aware
    # mode does without the map
    text = image.text[:offset] + (0x00000013).to_bytes(4, "little") + image.text[offset + 4:]
    write_image(dataclasses.replace(image, text=text), path)
    assert main(["run", "--mode", "compat", str(path)]) == 0
    assert capsys.readouterr().out.startswith("exit=7 reason=exit ")
    dump = workspace / "out.json"
    coverage = ["--dump-coverage", str(dump)]
    for command in (["run", "--mode", "compat", *coverage], ["run", "--mode", "aware", *coverage],
                    ["enforce", *coverage], ["run", "--mode", "aware"], ["enforce"]):
        assert main([*command, str(path)]) == cli.EXIT_BUILD
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"rvtag: image error: tag slot {carrier:#x}: "
                       "0x00000013 is not a lui x0 word\n"), command
    assert carrier == 0x10000 and not dump.exists()


RETURN_INTO_DATA = (
    "main:\n"
    "    la t0, buf\n"
    "    li t1, 0x73\n"
    "    sw t1, 0(t0)\n"
    "    li a0, 42\n"
    "    li a7, 93\n"
    "    mv ra, t0\n"
    "    ret\n"
    ".data\n"
    "buf:\n"
    "    .zero 8\n"
)


@pytest.mark.parametrize("command", [["run"], ["run", "--mode", "aware"], ["enforce"]],
                         ids=["run-compat", "run-aware", "enforce"])
def test_a_jump_into_data_is_a_run_failure(workspace, capsys, command):
    # it writes an ecall into data and returns there: only text executes
    (workspace / "ret.s").write_text(RETURN_INTO_DATA)
    image = workspace / "ret.rvti"
    assert main(["link", "--config", str(workspace / "cfi.conf"), "--out", str(image),
                 str(workspace / "ret.s")]) == 0
    capsys.readouterr()
    assert main([*command, str(image)]) == cli.EXIT_BUILD
    assert capsys.readouterr().err.startswith("rvtag: run failed: pc=0x20000: ")


@pytest.mark.parametrize("args", [
    ["run", "IMAGE", "--max-insns", "-5"],
    ["run", "IMAGE", "--max-insns", "0"],
    ["enforce", "IMAGE", "--max-insns", "-1"],
    ["diff-run", "--config", "CONF", "PROG", "--max-insns", "0"],
    ["diff-run", "--config", "CONF", "--generate", "-3"],
    ["diff-run", "--config", "CONF", "--generate", "0"],
], ids=["run-negative", "run-zero", "enforce", "diff-run-budget", "generate-negative",
        "generate-zero"])
def test_counts_below_one_are_usage_errors(workspace, capsys, args):
    # before, a budget below 1 ran and failed with "fetched 0 words", and
    # --generate -3 printed a corpus seed and then "nothing to run"
    image = workspace / "sum.rvti"
    write_image(build_image(SUM_SRC, make_config(carrier="lui", coverage=3)), image)
    paths = {"IMAGE": str(image), "CONF": str(workspace / "tags.conf"),
             "PROG": str(workspace / "prog.s")}
    with pytest.raises(SystemExit) as info:
        main([paths.get(arg, arg) for arg in args])
    assert info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {args[-2]}: must be at least 1, not {args[-1]}" in captured.err


def test_diff_run_generate_json_stdout_is_one_document(workspace, capsys, tmp_path):
    code = main(["diff-run", "--config", str(workspace / "tags.conf"),
                 "--json", "--generate", "2", "--seed", "5"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["aggregate"]["programs"] == 2
    assert captured.err == "corpus seed: 5\n"
    saved = tmp_path / "saved.json"
    saved.write_text(captured.out)
    assert main(["report", str(saved)]) == 0


def _report(results, **extra):
    return json.dumps({"schema": "rvtag-report-v1", "results": results, **extra}).encode()


ROW = {"program": "p", "baseline_dynamic": 10, "tagged_dynamic": 15,
       "dynamic_overhead_pct": 50.0}


@pytest.mark.parametrize("content", [
    b"corpus seed: 4\n{}", b"[1, 2]", b"\xff\xfe{",
    _report([{}]),
    _report([ROW], aggregate=5),
    _report([ROW], aggregate={"programs": 1}),
    _report(5),
    _report([5]),
    _report([{**ROW, "program": 3}]),
    _report([{**ROW, "baseline_dynamic": "10"}]),
    _report([{**ROW, "tagged_dynamic": True}]),
    _report([{**ROW, "dynamic_overhead_pct": None}]),
    _report([{**ROW, "nolabel_dynamic_overhead_pct": "12.5"}]),
])
def test_report_rejects_a_file_that_is_not_a_json_object(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["report", str(bad)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"rvtag: {bad}: not a JSON report: ")


def test_run_reports_a_malformed_image_as_an_image_error(tmp_path, capsys):
    bad = tmp_path / "bad.rvti"
    bad.write_bytes(b"NOPE" + bytes(40))
    assert main(["run", str(bad)]) == cli.EXIT_BUILD
    assert capsys.readouterr().err == "rvtag: image error: bad magic b'NOPE'\n"


def test_build_rejects_a_statement_of_only_annotations(workspace, capsys):
    source = workspace / "bare.s"
    source.write_text("main:\n    li a0, 1\n    !unsigned\n    ecall\n")
    code = main(["build", "--config", str(workspace / "tags.conf"),
                 "--out", str(workspace / "bare.rvti"), str(source)])
    assert code == cli.EXIT_BUILD
    assert capsys.readouterr().err == (
        f"rvtag: build error: {source}:3:1: annotations without an instruction\n")


# The commands that read assembly sources, each over prog.s and bad.s.
SOURCE_COMMANDS = [
    ["assemble", "prog.s", "bad.s"],
    ["link", "--config", "tags.conf", "--out", "bad.rvti", "prog.s", "bad.s"],
    ["build", "--config", "tags.conf", "--out", "bad.rvti", "prog.s", "bad.s"],
    ["diff-run", "--config", "tags.conf", "prog.s", "bad.s"],
]


@pytest.mark.parametrize("argv", SOURCE_COMMANDS, ids=lambda argv: argv[0])
def test_build_errors_name_the_source_path(workspace, capsys, monkeypatch, argv):
    monkeypatch.chdir(workspace)
    Path("bad.s").write_text("bad:\n    li a0, 1\n    j 6\n")
    assert main(argv) == cli.EXIT_BUILD
    assert capsys.readouterr().err == (
        "rvtag: build error: bad.s:3:1: j: offset 6 is not a multiple of 4\n")


@pytest.mark.parametrize("argv", SOURCE_COMMANDS, ids=lambda argv: argv[0])
def test_a_source_that_is_not_utf8_is_a_build_error(workspace, capsys, monkeypatch, argv):
    monkeypatch.chdir(workspace)
    Path("bad.s").write_bytes(b"main:\n    li a0, 1 # \xff\n    ecall\n")
    assert main(argv) == cli.EXIT_BUILD
    err = capsys.readouterr().err
    assert err.startswith("rvtag: build error: cannot read source bad.s: 'utf-8' codec ")
    assert "Traceback" not in err and not Path("bad.rvti").exists()


HOT_CONFIG = ("carrier = lui\ncoverage = 3\npolicy = cfi\n"
              "tags = N:0, CFL:1, HOT:2\ndefault_tag = HOT\n")


def _config_with_policy(path, policy):
    return cli._load_config(argparse.Namespace(config=str(path), policy=policy))


def test_policy_flag_keeps_the_configs_extra_tags_and_default(workspace, capsys):
    conf = workspace / "hot.conf"
    conf.write_text(HOT_CONFIG)
    plain = _config_with_policy(conf, None)
    assert plain.default_tag == 2
    assert _config_with_policy(conf, "cfi") == plain
    none = _config_with_policy(conf, "none")
    assert (none.policy, none.tag_names, none.default_tag) == ("none", (("N", 0), ("HOT", 2)), 2)
    swapped = _config_with_policy(workspace / "cov.conf", "cfi")  # no tags declared
    assert (swapped.tag_names, swapped.default_tag) == ((("N", 0), ("CFL", 1)), 0)
    (workspace / "two.s").write_text(TWO_FUNCTIONS)
    images = []
    for extra in ([], ["--policy", "cfi"]):
        out = workspace / f"hot{len(extra)}.rvti"
        assert main(["link", "--config", str(conf), *extra, "--out", str(out),
                     str(workspace / "two.s")]) == 0
        images.append(out.read_bytes())
    assert images[0] == images[1]


def test_policy_flag_rejects_a_tag_its_vocabulary_gives_another_value(workspace, capsys):
    conf = workspace / "clash.conf"
    conf.write_text("carrier = lui\ncoverage = 3\ntags = N:0, CFL:2\n")
    with pytest.raises(ConfigError, match="tags: policy 'cfi' requires CFL=1, config says 2"):
        _config_with_policy(conf, "cfi")
    assert main(["link", "--config", str(conf), "--policy", "cfi", "--out",
                 str(workspace / "clash.rvti"), str(workspace / "prog.s")]) == cli.EXIT_BUILD
    assert capsys.readouterr().err == (
        "rvtag: build error: tags: policy 'cfi' requires CFL=1, config says 2\n")
    conf.write_text("carrier = lui\ncoverage = 7\npolicy = coverage\ndefault_tag = CI\n")
    with pytest.raises(ConfigError, match="default_tag: 'CI' is not a declared tag"):
        _config_with_policy(conf, "cfi")


@pytest.mark.parametrize("default", ["N", "HOT"])
def test_policy_flag_rejects_a_tag_that_aliases_a_builtin_value(workspace, capsys, default):
    conf, out = workspace / "alias.conf", workspace / "alias.rvti"
    conf.write_text(f"carrier = lui\ncoverage = 3\ntags = N:0, HOT:1\ndefault_tag = {default}\n")
    assert _config_with_policy(conf, None).tag_names == (("N", 0), ("HOT", 1))
    assert main(["link", "--config", str(conf), "--policy", "cfi", "--out", str(out),
                 str(workspace / "prog.s")]) == cli.EXIT_BUILD
    assert capsys.readouterr().err == (
        "rvtag: build error: tags: 'CFL' and 'HOT' share value 1\n")
    assert not out.exists()


def test_dump_coverage_replaces_an_existing_map(workspace, capsys):
    image_path, cov = workspace / "cov.rvti", workspace / "cov.json"
    assert main(["link", "--config", str(workspace / "cov.conf"), "--out", str(image_path),
                 str(workspace / "prog.s")]) == 0
    stale = '{"stale": "a map from an earlier, longer run"}' + " " * 4096
    cov.write_text(stale)
    kept = workspace / "kept.json"
    os.link(cov, kept)  # holds the old file, so its inode is not reused
    assert main(["run", "--mode", "aware", "--dump-coverage", str(cov), str(image_path)]) == 0
    dumped = json.loads(cov.read_text())
    assert set(dumped) == {"cl", "ci", "bcf"} and dumped["cl"]
    assert cov.stat().st_ino != kept.stat().st_ino
    assert kept.read_text() == stale


# ---------------------------------------------------------------------------
# Seeded mutant fuzz: damaged images and configs end clean or in a typed error.
# Every mutant goes through the library; the first of each outcome, per mode,
# also through the CLI for its exit code.  The fetch budget bounds every run;
# no wall-clock alarm is needed.

FUZZ_BUDGET = 5000
FUZZ_CELLS = [  # (source, carrier, coverage, policy)
    (TWO_FUNCTIONS, "lui", 3, "cfi"),
    (SUM_SRC, "lui", 7, "coverage"),
    (SUM_SRC.replace("add a0, a0, t1", "add a0, a0, t1 !unsigned"), "addi", 1, "unarith"),
]
FUZZ_CONFIG = ("carrier = lui\ncoverage = 3\npolicy = cfi\nlabels = true\n"
               "tags = N:0, CFL:1\ndefault_tag = N\n")


def _mutate(rng, blob):
    """`blob` with 1-4 random bytes overwritten by random values."""
    blob = bytearray(blob)
    for _ in range(rng.randint(1, 4)):
        blob[rng.randrange(len(blob))] = rng.randrange(256)
    return bytes(blob)


def _outcome(action):
    """None for a clean return of `action`, else the class of its typed
    error; an untyped exception propagates and fails the test."""
    try:
        action()
    except RvtagError as exc:
        return type(exc)
    return None


def _exit_code(outcome):
    if outcome is None:
        return cli.EXIT_OK
    return cli.EXIT_POLICY if issubclass(outcome, PolicyViolation) else cli.EXIT_BUILD


def test_image_mutant_fuzz_ends_clean_or_in_a_typed_error(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "mutant.rvti"
    seen = set()  # (mode, outcome)
    for source, carrier, coverage, policy in FUZZ_CELLS:
        write_image(build_image(source, make_config(carrier=carrier, coverage=coverage,
                                                    policy=policy)), path)
        blob = path.read_bytes()
        for _ in range(300):
            path.write_bytes(_mutate(rng, blob))
            try:
                image, read_error = read_image(path), None
            except FormatError:
                image, read_error = None, FormatError
            for mode in ("compat", "aware"):
                outcome = read_error or _outcome(
                    lambda: run_image(image, mode=mode, max_insns=FUZZ_BUDGET))
                if (mode, outcome) not in seen:
                    assert main(["run", "--mode", mode, "--max-insns", str(FUZZ_BUDGET),
                                 str(path)]) == _exit_code(outcome)
                    capsys.readouterr()
                    seen.add((mode, outcome))
    outcomes = {outcome for _, outcome in seen}
    assert {None, FormatError, emulator.BadInstruction, emulator.LimitExceeded,
            PolicyViolation} <= outcomes


def test_config_mutant_fuzz_ends_clean_or_in_a_config_error(workspace, capsys):
    rng = random.Random(2)
    path, out, source = workspace / "mutant.conf", workspace / "out.rvti", workspace / "two.s"
    source.write_text(TWO_FUNCTIONS)
    seen = set()
    for _ in range(300):
        blob = _mutate(rng, FUZZ_CONFIG.encode())
        path.write_bytes(blob)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            text = None  # load_config must still fail cleanly on it
        if text is not None:
            parsed = _outcome(lambda: loads_config(text))
            assert parsed is None or issubclass(parsed, ConfigError)
        outcome = _outcome(lambda: build_image(TWO_FUNCTIONS, load_config(path)))
        if outcome not in seen:
            assert main(["link", "--config", str(path), "--out", str(out),
                         str(source)]) == _exit_code(outcome)
            capsys.readouterr()
            seen.add(outcome)
    assert None in seen and ConfigError in seen
