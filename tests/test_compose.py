import pytest

from beaverkit.compose import (
    ManifestError,
    Section,
    SectionManifest,
    compose,
    load_manifest,
    parse_manifest,
)
from beaverkit.engine import HALTED, WATCH, RunLimits, run
from beaverkit.machine import HALT, state_count
from beaverkit.tables import parse_table
from beaverkit.tape import Configuration, Tape


def toy_manifest(wiring=None):
    a = parse_table("!start a\na|0|1|R|NM")
    b = parse_table("!start b\nb|0|1|R|HALT")
    return SectionManifest(
        sections=[Section("A", a, start="a"), Section("B", b, start="b")],
        wiring=wiring if wiring is not None else {"A": ("B", "b")},
        entry=("A", "a"),
    )


def test_two_section_chain_halts_after_two_steps():
    composed = compose(toy_manifest())
    out = run(composed.machine)
    assert out.kind == HALTED and out.steps == 2
    assert out.halting_state == HALT
    assert out.config.tape.blocks() == [2]


def test_missing_wiring_is_an_error():
    manifest = toy_manifest(wiring={})
    with pytest.raises(ManifestError, match="section 'A'.*NM"):
        compose(manifest)


def test_wiring_to_halt():
    manifest = toy_manifest(wiring={"A": HALT})
    out = run(compose(manifest).machine)
    assert out.kind == HALTED and out.steps == 1 and out.halting_state == HALT


def test_dangling_wire_target():
    manifest = toy_manifest(wiring={"A": ("B", "nope")})
    with pytest.raises(ManifestError, match="no such state"):
        compose(manifest)


def test_entry_must_exist():
    manifest = toy_manifest()
    manifest.entry = ("A", "zzz")
    with pytest.raises(ManifestError, match="entry"):
        compose(manifest)


def test_manifest_parse_errors(tmp_path):
    with pytest.raises(ManifestError, match="entry"):
        parse_manifest("", tmp_path)
    with pytest.raises(ManifestError, match="unknown directive"):
        parse_manifest("bogus line\nentry a.b", tmp_path)
    with pytest.raises(ManifestError, match="line 1: section"):
        parse_manifest("section a a.tbl a.overlay extra start=A\nentry a.A", tmp_path)


def test_composed_fermat_state_count(fermat_composed, fermat_t1, fermat_t2, fermat_t3):
    total = sum(map(state_count, (fermat_t1, fermat_t2, fermat_t3)))
    assert state_count(fermat_composed.machine) == total == 92


@pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
def test_section_preservation(fermat_t2, fermat_composed, x):
    # standalone squarer, run to its NM exit
    tape = Tape.from_blocks([x])
    alone = run(fermat_t2, Configuration("0", tape), RunLimits(max_steps=10**6))
    assert alone.kind == HALTED and alone.halting_state == "NM"
    # composed machine from the squarer's start, run until the wired target
    tape = Tape.from_blocks([x])
    together = run(
        fermat_composed.machine,
        Configuration("t2.0", tape),
        RunLimits(max_steps=10**6),
        watch=("t3.1",),
    )
    assert together.kind == WATCH
    assert together.steps == alone.steps
    assert together.config.tape.content_equal(alone.config.tape)


def test_shipped_manifests_load(data_dir):
    for name in ("fermat.manifest", "brocard.manifest", "brocard_asprinted.manifest"):
        manifest = load_manifest(data_dir / name)
        compose(manifest)


# one section, wired and entered; each case appends a second declaration
MANIFEST = "section a a.tbl start=a\nwire a.NM -> HALT\nentry a.a\n"
SECOND = {
    "section": ("section a a.tbl start=a", "section 'a' is declared twice"),
    "wire": ("wire a.NM -> a.a", "a.NM is wired twice"),
    "entry": ("entry a.a", "entry is declared twice"),
}


def manifest_with_a_second(tmp_path, directive):
    (tmp_path / "a.tbl").write_text("!start a\na|0|1|R|NM\n")
    path = tmp_path / "m.manifest"
    path.write_text(MANIFEST + SECOND[directive][0] + "\n")
    return path


@pytest.mark.parametrize("directive", sorted(SECOND))
def test_a_second_declaration_is_refused_at_its_line(tmp_path, directive):
    # a second wire or entry used to overwrite the first, and a second
    # section with one label was refused by `compose` alone, with no line
    path = manifest_with_a_second(tmp_path, directive)
    message = SECOND[directive][1]
    with pytest.raises(ManifestError) as err:
        parse_manifest(path.read_text(), tmp_path)
    assert str(err.value) == f"line 4: {message}"
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}:4: {message}"
    assert compose(parse_manifest(MANIFEST, tmp_path)).machine.start == "a.a"
