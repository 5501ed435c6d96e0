"""Transition-table files: parsing, validation, overlays, construction.

File format: UTF-8 text, one transition per line, five pipe-separated
fields ``state|reads|writes|moves|calls``.  ``#`` opens a comment at
the start of a line or after whitespace (the rule every beaverkit file
shares, so ``A|0|1|R|B#x`` calls ``B#x``), blank lines are skipped, and
two directives are recognized, each at most once: ``!name <label>`` and
``!start <state>``.  Row order is preserved exactly, because validation
findings cite row indices.

Overlay files carry hand-curated renames for known-defective published
tables: ``rename <rowIndex> <state|calls> <old> <new>`` plus an optional
``start <state>``, at most once.  An overlay can only rename per-row
fields; it never changes reads, writes, moves, or the row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .machine import HALT, Action, Machine, parse_move, parse_symbol, move_name
from .textfile import Lines, load

ERROR = "error"
WARNING = "warning"

CONFLICTING_TRANSITION = "conflicting_transition"
DUPLICATE_ROW = "duplicate_row"
UNDEFINED_CALL_TARGET = "undefined_call_target"
MISSING_READ = "missing_read"
UNREACHABLE_STATE = "unreachable_state"


class TableError(ValueError):
    """Syntax or structural error in a table, overlay, or build."""


@dataclass(frozen=True)
class TableRow:
    state: str
    reads: int
    writes: int
    moves: int
    calls: str

    def to_line(self) -> str:
        return f"{self.state}|{self.reads}|{self.writes}|{move_name(self.moves)}|{self.calls}"


@dataclass
class RawTable:
    name: str
    rows: list[TableRow]
    declared_start: str | None = None

    def states(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.state)
        return list(seen)


@dataclass(frozen=True)
class Defect:
    kind: str
    severity: str
    detail: str
    state: str | None = None
    rows: tuple[int, ...] = ()

    def __str__(self) -> str:
        where = f" rows={list(self.rows)}" if self.rows else ""
        return f"{self.severity}: {self.kind} {self.detail}{where}"


@dataclass(frozen=True)
class Rename:
    row_index: int
    fieldname: str  # "state" or "calls"
    old: str
    new: str


@dataclass
class Overlay:
    renames: list[Rename] = field(default_factory=list)
    start_override: str | None = None


def parse_table(text: str, name: str = "table") -> RawTable:
    rows: list[TableRow] = []
    declared: dict[str, str] = {}  # directive -> its argument
    with Lines(text, TableError) as lines:
        for _, line in lines:
            if line.startswith("!"):
                parts = line[1:].split()
                if len(parts) != 2 or parts[0] not in ("name", "start"):
                    raise TableError(f"unknown directive {line!r}")
                if parts[0] in declared:
                    raise TableError(f"!{parts[0]} is declared twice")
                declared[parts[0]] = parts[1]
                continue
            fields = [f.strip() for f in line.split("|")]
            if len(fields) != 5:
                raise TableError(f"expected 5 pipe-separated fields, got {len(fields)}")
            state, reads, writes, moves, calls = fields
            if not state or not calls:
                raise TableError("empty state or calls field")
            rows.append(TableRow(state, parse_symbol(reads), parse_symbol(writes),
                                 parse_move(moves), calls))
    name = declared.get("name", name)
    return RawTable(name=name, rows=rows, declared_start=declared.get("start"))


def load_table(path) -> RawTable:
    return load(path, parse_table, Path(path).stem)


def serialize_machine(machine: Machine) -> str:
    """Canonical table text for a Machine (state order preserved)."""
    lines = [f"!name {machine.name}", f"!start {machine.start}"]
    for state, pair in machine.states.items():
        for sym, act in enumerate(pair):
            if act is not None:
                lines.append(f"{state}|{sym}|{act.write}|{move_name(act.move)}|{act.target}")
    return "\n".join(lines) + "\n"


def validate(raw: RawTable) -> list[Defect]:
    """Findings over a parsed table; errors block machine construction."""
    defects: list[Defect] = []
    by_key: dict[tuple[str, int], list[int]] = {}
    by_line: dict[str, list[int]] = {}
    for i, r in enumerate(raw.rows):
        by_key.setdefault((r.state, r.reads), []).append(i)
        by_line.setdefault(r.to_line(), []).append(i)

    for line, idxs in by_line.items():
        if len(idxs) > 1:
            defects.append(
                Defect(
                    DUPLICATE_ROW,
                    ERROR,
                    f"row repeated verbatim: {line}",
                    state=raw.rows[idxs[0]].state,
                    rows=tuple(idxs),
                )
            )
    for (state, reads), idxs in sorted(by_key.items(), key=lambda kv: kv[1][0]):
        actions = {raw.rows[i].to_line() for i in idxs}
        if len(actions) > 1:
            defects.append(
                Defect(
                    CONFLICTING_TRANSITION,
                    ERROR,
                    f"state {state} read {reads} has {len(actions)} distinct actions",
                    state=state,
                    rows=tuple(idxs),
                )
            )

    defined = set(r.state for r in raw.rows)
    seen_missing: set[tuple[str, int]] = set()
    for i, r in enumerate(raw.rows):
        if r.calls != HALT and r.calls not in defined:
            defects.append(
                Defect(
                    UNDEFINED_CALL_TARGET,
                    WARNING,
                    f"row {i} calls undefined {r.calls!r} (halts if taken)",
                    state=r.state,
                    rows=(i,),
                )
            )
        other = 1 - r.reads
        if (r.state, other) not in by_key and (r.state, other) not in seen_missing:
            seen_missing.add((r.state, other))
            defects.append(
                Defect(
                    MISSING_READ,
                    WARNING,
                    f"state {r.state} has no action for read {other} (halts on it)",
                    state=r.state,
                    rows=(i,),
                )
            )

    if raw.declared_start is not None and raw.declared_start in defined:
        adj: dict[str, set[str]] = {}
        for r in raw.rows:
            adj.setdefault(r.state, set()).add(r.calls)
        reach = {raw.declared_start}
        frontier = [raw.declared_start]
        while frontier:
            for t in adj.get(frontier.pop(), ()):
                if t in defined and t not in reach:
                    reach.add(t)
                    frontier.append(t)
        for s in raw.states():
            if s not in reach:
                defects.append(
                    Defect(
                        UNREACHABLE_STATE,
                        WARNING,
                        f"state {s} unreachable from start {raw.declared_start}",
                        state=s,
                    )
                )
    return defects


def errors_of(defects: list[Defect]) -> list[Defect]:
    return [d for d in defects if d.severity == ERROR]


def parse_overlay(text: str) -> Overlay:
    ov = Overlay()
    with Lines(text, TableError) as lines:
        for _, line in lines:
            parts = line.split()
            if parts[0] == "rename" and len(parts) == 5:
                idx_token, fieldname, old, new = parts[1:]
                if fieldname not in ("state", "calls"):
                    raise TableError("rename field must be state or calls")
                ov.renames.append(Rename(int(idx_token), fieldname, old, new))
            elif parts[0] == "start" and len(parts) == 2:
                if ov.start_override is not None:
                    raise TableError("start is declared twice")
                ov.start_override = parts[1]
            else:
                raise TableError(f"unknown overlay line {line!r}")
    return ov


def load_overlay(path) -> Overlay:
    return load(path, parse_overlay)


def apply_overlay(raw: RawTable, overlay: Overlay) -> RawTable:
    """Renamed copy of `raw`; never changes row count or non-name fields."""
    rows = list(raw.rows)
    for rn in overlay.renames:
        if not 0 <= rn.row_index < len(rows):
            raise TableError(f"rename row index {rn.row_index} out of range")
        row = rows[rn.row_index]
        current = row.state if rn.fieldname == "state" else row.calls
        if current != rn.old:
            raise TableError(
                f"rename row {rn.row_index}: {rn.fieldname} is {current!r}, not {rn.old!r}"
            )
        rows[rn.row_index] = replace(row, **{rn.fieldname: rn.new})
    start = overlay.start_override if overlay.start_override is not None else raw.declared_start
    return RawTable(name=raw.name, rows=rows, declared_start=start)


def build_machine(raw: RawTable, start: str | None = None) -> Machine:
    """Construct a Machine; refuses while error-severity defects remain.

    Call targets that are not defined states pass through unresolved:
    ``HALT`` is the reserved halt marker, anything else (``NM``, bare
    figure-only nodes) halts if taken, until a composition rewires it.
    """
    errs = errors_of(validate(raw))
    if errs:
        listing = "; ".join(str(e) for e in errs)
        raise TableError(f"table {raw.name!r} has blocking defects: {listing}")
    states: dict[str, list[Action | None]] = {}
    for r in raw.rows:
        pair = states.setdefault(r.state, [None, None])
        pair[r.reads] = Action(r.writes, r.moves, r.calls)
    start = start or raw.declared_start
    if start is None:
        raise TableError(f"table {raw.name!r} has no start state (use !start or pass one)")
    return Machine(
        name=raw.name,
        start=start,
        states={s: (p[0], p[1]) for s, p in states.items()},
    )
