"""CLI commands: each transform computed once, classify depth checked."""

import importlib

import pytest

from ietkit import cli
from ietkit.cli import main

# The package re-exports the function ``bwt``, which hides the module of
# the same name as an attribute of ``ietkit``.
bwt_module = importlib.import_module("ietkit.bwt")


def count_calls(monkeypatch, name):
    """Count calls of ``ietkit.bwt.<name>``, also through a name the CLI
    imported from that module."""
    calls = []
    original = getattr(bwt_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (bwt_module, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bwt", ["bwt", "--alphabet", "abn", "--json", "-", "banana"]),
        ("ebwt", ["ebwt", "--alphabet", "abc", "--json", "-", "aac", "ab", "ab"]),
    ],
)
def test_transform_is_computed_once(monkeypatch, capsys, name, argv):
    calls = count_calls(monkeypatch, name)
    assert main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("transform: ")


def test_classify_rejects_a_negative_depth(capsys):
    code = main(["classify", "--source", "periodic:abcab", "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: classification depth must be nonnegative, got -1\n"
