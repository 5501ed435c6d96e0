import pytest
from hypothesis import given, strategies as st

from beaverkit.machine import HALT, NEXT_MACHINE, Action, Machine, state_count
from beaverkit.tables import (
    CONFLICTING_TRANSITION,
    DUPLICATE_ROW,
    MISSING_READ,
    UNDEFINED_CALL_TARGET,
    UNREACHABLE_STATE,
    Overlay,
    Rename,
    TableError,
    TableRow,
    apply_overlay,
    build_machine,
    errors_of,
    load_overlay,
    load_table,
    parse_overlay,
    parse_table,
    serialize_machine,
    validate,
)


def test_parse_numeric_row():
    raw = parse_table("0|0|1|L|13")
    (row,) = raw.rows
    assert (row.state, row.reads, row.writes, row.moves, row.calls) == ("0", 0, 1, -1, "13")


def test_parse_halt_row():
    raw = parse_table("Ns|0|1|L|HALT")
    assert raw.rows[0].calls == HALT


def test_parse_rejects_nonbinary_read():
    with pytest.raises(TableError, match="invalid symbol"):
        parse_table("X|2|1|L|Y")


def test_parse_rejects_bad_move_and_arity():
    with pytest.raises(TableError, match="invalid move"):
        parse_table("A|0|1|D|B")
    with pytest.raises(TableError, match="5 pipe-separated"):
        parse_table("A|0|1|L")


def test_parse_whitespace_comments_directives():
    text = """
    # a comment
    !name demo
    !start A
    A | 0 | 1 | R | B   # trailing comment
    B|1|0|L|A
    C|0|1|R|B#x
    """
    raw = parse_table(text)
    assert raw.name == "demo"
    assert raw.declared_start == "A"
    assert [r.calls for r in raw.rows] == ["B", "A", "B#x"]  # '#' glued to a token is kept


def test_round_trip_table():
    text = "!name t\n!start A\nA|0|1|R|B\nB|1|0|L|HALT\n"
    raw = parse_table(text)
    again = parse_table("!start A\n" + "\n".join(r.to_line() for r in raw.rows))
    assert again.rows == raw.rows
    assert again.declared_start == raw.declared_start


@pytest.mark.parametrize("name", ["fermat_t1", "fermat_t2", "fermat_t3", "brocard", "brocard_ref"])
def test_round_trip_shipped_tables(data_dir, name):
    raw = load_table(data_dir / f"{name}.tbl")
    again = parse_table("\n".join(r.to_line() for r in raw.rows))
    assert again.rows == raw.rows


def test_single_row_table_warns_missing_read_only():
    raw = parse_table("A|0|0|R|A")
    defects = validate(raw)
    assert not errors_of(defects)
    kinds = {(d.kind, d.state) for d in defects}
    assert (MISSING_READ, "A") in kinds


def test_duplicate_row_is_error():
    raw = parse_table("A|0|0|R|A\nA|0|0|R|A")
    kinds = {d.kind for d in errors_of(validate(raw))}
    assert DUPLICATE_ROW in kinds


def test_undefined_target_is_warning():
    raw = parse_table("A|0|0|R|Z")
    defects = validate(raw)
    assert not errors_of(defects)
    assert any(d.kind == UNDEFINED_CALL_TARGET for d in defects)


def test_unreachable_state_warning_needs_declared_start():
    raw = parse_table("!start A\nA|0|0|R|A\nB|0|0|R|B")
    assert any(d.kind == UNREACHABLE_STATE and d.state == "B" for d in validate(raw))
    raw2 = parse_table("A|0|0|R|A\nB|0|0|R|B")
    assert not any(d.kind == UNREACHABLE_STATE for d in validate(raw2))


def test_published_brocard_conflicts(data_dir):
    raw = load_table(data_dir / "brocard.tbl")
    errs = errors_of(validate(raw))
    conflicted = {d.state for d in errs if d.kind == CONFLICTING_TRANSITION}
    assert {"As", "Pf", "Qf", "Ss"} <= conflicted
    # the As conflict is between targets Bs and As on read 0
    as_defect = next(d for d in errs if d.state == "As")
    targets = {raw.rows[i].calls for i in as_defect.rows}
    assert targets == {"Bs", "As"}
    # the Pf conflict pairs the 0,R,Vf action with the 0,L,Qf one
    pf_defect = next(d for d in errs if d.state == "Pf")
    actions = {(raw.rows[i].writes, raw.rows[i].moves, raw.rows[i].calls) for i in pf_defect.rows}
    assert actions == {(0, 1, "Vf"), (0, -1, "Qf")}


def test_overlay_clears_brocard_conflicts(data_dir):
    raw = load_table(data_dir / "brocard.tbl")
    ov = load_overlay(data_dir / "brocard.overlay")
    fixed = apply_overlay(raw, ov)
    assert not errors_of(validate(fixed))
    assert fixed.declared_start == "Df"
    assert len(fixed.rows) == len(raw.rows)


def test_overlay_never_introduces_new_conflicts(data_dir):
    raw = load_table(data_dir / "brocard.tbl")
    before = {d.state for d in errors_of(validate(raw))}
    fixed = apply_overlay(raw, load_overlay(data_dir / "brocard.overlay"))
    after = {d.state for d in errors_of(validate(fixed))}
    assert after <= before


def test_empty_overlay_is_identity(data_dir):
    raw = load_table(data_dir / "brocard.tbl")
    assert apply_overlay(raw, Overlay()).rows == raw.rows


def test_overlay_errors():
    raw = parse_table("A|0|0|R|B\nB|1|1|L|A")
    with pytest.raises(TableError, match="out of range"):
        apply_overlay(raw, Overlay(renames=[Rename(5, "state", "A", "C")]))
    with pytest.raises(TableError, match="not 'X'"):
        apply_overlay(raw, Overlay(renames=[Rename(0, "state", "X", "C")]))


def test_overlay_start_override():
    raw = parse_table("!start A\nA|0|0|R|B\nB|1|1|L|A")
    fixed = apply_overlay(raw, Overlay(start_override="B"))
    assert fixed.declared_start == "B"


@pytest.mark.parametrize("text, lineno, directive", [
    pytest.param("!name a\n!name b\n!start A\nA|0|0|R|A\n", 2, "name", id="name"),
    pytest.param("!name a\n!start A\nA|0|0|R|A\n!start B\n", 4, "start", id="start"),
])
def test_a_repeated_table_directive_is_refused_at_its_line(text, lineno, directive):
    with pytest.raises(TableError, match=f"^line {lineno}: !{directive} is declared twice$"):
        parse_table(text)


def test_a_repeated_overlay_start_is_refused_at_its_line():
    with pytest.raises(TableError, match="^line 2: start is declared twice$"):
        parse_overlay("start A\nstart B\n")


def test_build_refuses_published_brocard(data_dir):
    raw = load_table(data_dir / "brocard.tbl")
    with pytest.raises(TableError) as err:
        build_machine(raw)
    assert "As" in str(err.value) and "Pf" in str(err.value)


def test_build_published_brocard_with_overlay(data_dir, brocard_asprinted):
    assert state_count(brocard_asprinted.machine) == 47  # 43 names + 4 renamed


def test_section_state_counts(data_dir, fermat_t1, fermat_t2, fermat_t3):
    assert state_count(fermat_t1) == 30
    assert state_count(fermat_t2) == 17
    assert state_count(fermat_t3) == 45


def test_machine_round_trip_preserves_action_map(fermat_t3):
    again = build_machine(parse_table(serialize_machine(fermat_t3)))
    assert dict(again.states) == dict(fermat_t3.states)
    assert again.start == fermat_t3.start


def serialized_by_rows(machine):
    """The reference for `serialize_machine`: one `TableRow` line per action."""
    lines = [f"!name {machine.name}", f"!start {machine.start}"]
    for state, (on_zero, on_one) in machine.states.items():
        for sym, act in ((0, on_zero), (1, on_one)):
            if act is not None:
                lines.append(TableRow(state, sym, act.write, act.move, act.target).to_line())
    return "\n".join(lines) + "\n"


@st.composite
def tables(draw):
    """Random machines: names as the shipped tables have them, actions
    missing, and targets undefined, external or the halt marker."""
    names = draw(st.lists(st.sampled_from(["A", "B", "q0", "13", "b.Ps", "t1.25", "Ss"]),
                          min_size=1, max_size=5, unique=True))
    targets = st.sampled_from([*names, HALT, NEXT_MACHINE, "ext", "x.Qf"])
    action = st.builds(Action, st.integers(0, 1), st.sampled_from([-1, 1]), targets)
    pairs = st.tuples(st.none() | action, st.none() | action).filter(lambda p: p != (None, None))
    states = {name: draw(pairs) for name in names}
    return Machine(draw(st.sampled_from(["rand", "t1+t2+t3"])),
                   draw(st.sampled_from([*names, HALT])), states)


@given(tables())
def test_serialize_machine_matches_the_row_reference(machine):
    assert serialize_machine(machine) == serialized_by_rows(machine)


def test_build_machine_determinism_guarantee(data_dir):
    for name in ("fermat_t1", "fermat_t2", "fermat_t3", "brocard_ref"):
        raw = load_table(data_dir / f"{name}.tbl")
        m = build_machine(raw)
        for state, (a0, a1) in m.states.items():
            assert a0 is not None or a1 is not None
