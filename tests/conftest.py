"""Shared builders for the test suite."""

import pytest

from rvtag import cli, emulator
from rvtag.emulator import PolicyViolation
from rvtag.errors import RvtagError
from rvtag.pipeline import build_image
from rvtag.tagplan import make_config


def build(source, config, tagged=True, **kwargs):
    return build_image(source, config, tagged=tagged, **kwargs)


def run(image, mode="compat", max_insns=1_000_000):
    return emulator.run(image, mode=mode, max_insns=max_insns)


@pytest.fixture
def lui_n3():
    return make_config(carrier="lui", coverage=3)


@pytest.fixture
def cfi_n3():
    return make_config(carrier="lui", coverage=3, policy="cfi")


# The mutant fuzzes of test_cli and test_frontend: every run is bounded by
# its fetch budget, and a typed error maps to the exit code main gives it.

FUZZ_BUDGET = 5000


def typed_outcome(action):
    """None for a clean return of `action`, else the class of its typed
    error; an untyped exception propagates and fails the test."""
    try:
        action()
    except RvtagError as exc:
        return type(exc)
    return None


def exit_code_for(outcome):
    if outcome is None:
        return cli.EXIT_OK
    return cli.EXIT_POLICY if issubclass(outcome, PolicyViolation) else cli.EXIT_BUILD
