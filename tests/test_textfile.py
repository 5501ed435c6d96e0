"""The line reader every text format shares: only a format's own error
type escapes its parser, and errors from a file name that file and line."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from beaverkit.bb import RegistryError, load_registry, parse_certificate, parse_registry
from beaverkit.compose import ManifestError, load_manifest, parse_manifest
from beaverkit.harness import load_scenarios, parse_scenarios
from beaverkit.tables import TableError, load_overlay, load_table, parse_overlay, parse_table
from beaverkit.textfile import load

# format: (suffix, parse(text, dir), load(path), error type, keywords,
#          a file whose line 3 is malformed)
FORMATS = {
    "table": (
        ".tbl", lambda t, d: parse_table(t), load_table, TableError,
        ["!name", "!start", "A", "B", "0", "1", "L", "R", "HALT", "NM"],
        "# header\n\nA|0|1|R\n",
    ),
    "overlay": (
        ".overlay", lambda t, d: parse_overlay(t), load_overlay, TableError,
        ["rename", "start", "state", "calls", "0", "1", "A", "B"],
        "start A\n# renames\nrename x state A B\n",
    ),
    "manifest": (
        ".manifest", parse_manifest, load_manifest, ManifestError,
        ["section", "wire", "entry", "->", "start=A", "a.NM", "a.A", "HALT", "t.tbl", "a"],
        "entry a.A\n\nwire a.NM b.c\n",
    ),
    "scenarios": (
        ".scn", lambda t, d: parse_scenarios(t), load_scenarios, ValueError,
        ["scenario", "machine", "entry", "tape", "blank", "unary", "window", "head", "abs",
         "block", "left", "limit", "steps=", "cells=", "expect", "oracle", "square", "prime",
         "snapshot", "halted", "nothalt", "transfer", "values", "m.tbl", "S", "0", "1", "2", "-1"],
        "scenario s\nmachine m.tbl\nexpect transfer S@0\n",
    ),
    "registry": (
        ".registry", lambda t, d: parse_registry(t), load_registry, RegistryError,
        ["bb", "paper", "computed", "configured", "1", "2", "6"],
        "bb 1 1 computed\n# next\nbb 2 six computed\n",
    ),
    "certificate": (
        ".cert", lambda t, d: parse_certificate(t), lambda p: load(p, parse_certificate),
        ValueError,
        ["certificate", "nonhalt", "machine", "steps", "basis", "bb-bound", "cycle", "n",
         "value", "first", "period", "m", "0", "3"],
        "certificate nonhalt\nmachine m\nsteps many\n",
    ),
}
PUNCTUATION = ["#", "|", "..", "@", "=", " ", " ", "\t", "\n", "\n"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _outcome(call, error):
    try:
        call()
    except error as e:
        return e
    return None


@pytest.mark.parametrize("fmt", FORMATS)
def test_bad_line_names_file_and_line(fmt, workdir):
    suffix, parse, load_file, error, _, bad = FORMATS[fmt]
    path = workdir / f"bad{suffix}"
    path.write_text(bad)
    with pytest.raises(error, match=r"^line 3: "):
        parse(bad, workdir)
    with pytest.raises(error) as e:
        load_file(path)
    assert str(e.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_only_the_declared_error_escapes(fmt, workdir, data):
    suffix, parse, load_file, error, keywords, _ = FORMATS[fmt]
    alphabet = st.sampled_from(keywords + PUNCTUATION)
    text = data.draw(st.lists(alphabet, max_size=40).map("".join), label="text")
    # a manifest names other files; none of its refs exist, or they are directories
    allowed = (error, OSError) if fmt == "manifest" else error
    path = workdir / f"fuzz{suffix}"
    path.write_text(text)
    bare = _outcome(lambda: parse(text, workdir), allowed)
    loaded = _outcome(lambda: load_file(path), allowed)
    assert type(loaded) is type(bare)
    if bare is None or isinstance(bare, OSError):
        return
    at_line = re.fullmatch(r"line (\d+): (.*)", str(bare), re.S)
    if at_line is None:
        assert str(loaded) == f"{path}: {bare}"
        return
    n, message = int(at_line[1]), at_line[2]
    assert str(loaded) == f"{path}:{n}: {message}"
    line = text.splitlines()[n - 1].strip()
    assert line and not line.startswith("#")
