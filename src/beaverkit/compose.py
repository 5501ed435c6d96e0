"""Link machine sections into one machine via a manifest.

Sections are tables (with optional overlays) given a label and a start
state.  State names are namespaced ``<label>.<state>`` so sections can
never capture each other's names.  Each section's ``NM`` exits must be
wired to another section's state (or to the halt marker); wiring is
explicit because the shipped searchers loop backwards, not forward.

Manifest file grammar, one directive per line::

    section <label> <tableFile> [overlayFile] start=<state>
    wire <label>.NM -> <label>.<state> | HALT
    entry <label>.<state>

A label is declared by one `section` and wired by one `wire`, and there
is one `entry`; a second one is refused at its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .machine import HALT, NEXT_MACHINE, Action, Machine
from .tables import (
    Overlay,
    RawTable,
    apply_overlay,
    build_machine,
    load_overlay,
    load_table,
)
from .textfile import Lines, load


@dataclass
class Section:
    label: str
    table: RawTable
    overlay: Overlay | None = None
    start: str | None = None


@dataclass
class SectionManifest:
    sections: list[Section]
    wiring: dict[str, tuple[str, str] | str]  # label -> (label, state) or HALT
    entry: tuple[str, str]


@dataclass
class ComposedMachine:
    machine: Machine


class ManifestError(ValueError):
    pass


def parse_manifest(text: str, base_dir: Path | str = ".") -> SectionManifest:
    base = Path(base_dir)
    sections: list[Section] = []
    wiring: dict[str, tuple[str, str] | str] = {}
    entry: tuple[str, str] | None = None
    with Lines(text, ManifestError) as lines:
        for _, line in lines:
            parts = line.split()
            if parts[0] == "section":
                rest = parts[1:]
                if len(rest) not in (3, 4) or not rest[-1].startswith("start="):
                    raise ManifestError("section <label> <tableFile> [overlayFile] start=<state>")
                label, table_file = rest[0], rest[1]
                if any(sec.label == label for sec in sections):
                    raise ManifestError(f"section {label!r} is declared twice")
                overlay_file = rest[2] if len(rest) == 4 else None
                start = rest[-1].split("=", 1)[1]
                table = load_table(base / table_file)
                overlay = load_overlay(base / overlay_file) if overlay_file else None
                sections.append(Section(label, table, overlay, start))
            elif parts[0] == "wire":
                if len(parts) != 4 or parts[2] != "->":
                    raise ManifestError("wire <label>.NM -> <label>.<state>|HALT")
                src, dst = parts[1], parts[3]
                if not src.endswith(f".{NEXT_MACHINE}"):
                    raise ManifestError(f"wire source must be <label>.{NEXT_MACHINE}")
                label = src[: -len(NEXT_MACHINE) - 1]
                if label in wiring:
                    raise ManifestError(f"{src} is wired twice")
                if dst == HALT:
                    wiring[label] = HALT
                else:
                    dlabel, _, dstate = dst.partition(".")
                    if not dstate:
                        raise ManifestError("wire target must be <label>.<state>")
                    wiring[label] = (dlabel, dstate)
            elif parts[0] == "entry":
                if len(parts) != 2:
                    raise ManifestError("entry <label>.<state>")
                if entry is not None:
                    raise ManifestError("entry is declared twice")
                elabel, _, estate = parts[1].partition(".")
                if not estate:
                    raise ManifestError("entry must be <label>.<state>")
                entry = (elabel, estate)
            else:
                raise ManifestError(f"unknown directive {parts[0]!r}")
    if entry is None:
        raise ManifestError("manifest declares no entry")
    return SectionManifest(sections=sections, wiring=wiring, entry=entry)


def load_manifest(path) -> SectionManifest:
    return load(path, parse_manifest, Path(path).parent)


def section_machine(sec: Section) -> Machine:
    """The section on its own: overlay applied, its NM exits left open."""
    table = apply_overlay(sec.table, sec.overlay) if sec.overlay else sec.table
    return build_machine(table, start=sec.start or table.declared_start)


def compose(manifest: SectionManifest) -> ComposedMachine:
    """One machine from all sections, NM exits rewired per the manifest."""
    labels = [s.label for s in manifest.sections]
    if len(set(labels)) != len(labels):
        raise ManifestError(f"duplicate section labels in {labels}")
    by_label = {s.label: s for s in manifest.sections}
    for label, target in manifest.wiring.items():
        if label not in by_label:
            raise ManifestError(f"wiring references unknown section {label!r}")
        if target != HALT and target[0] not in by_label:
            raise ManifestError(f"wiring target references unknown section {target[0]!r}")

    built = {sec.label: section_machine(sec) for sec in manifest.sections}
    states: dict[str, tuple[Action | None, Action | None]] = {}
    for sec in manifest.sections:
        m = built[sec.label]
        uses_nm = NEXT_MACHINE in m.external_targets()
        if uses_nm and sec.label not in manifest.wiring:
            raise ManifestError(
                f"section {sec.label!r} exits via {NEXT_MACHINE} but has no wiring entry"
            )

        def retarget(act: Action | None) -> Action | None:
            if act is None:
                return None
            t = act.target
            if t == HALT:
                return act
            if t == NEXT_MACHINE:
                wired = manifest.wiring[sec.label]
                if wired == HALT:
                    return act._replace(target=HALT)
                dlabel, dstate = wired
                if dstate not in built[dlabel].states:
                    raise ManifestError(
                        f"wiring {sec.label}.{NEXT_MACHINE} -> {dlabel}.{dstate}: no such state"
                    )
                return act._replace(target=f"{dlabel}.{dstate}")
            return act._replace(target=f"{sec.label}.{t}")

        for name, (on_zero, on_one) in m.states.items():
            states[f"{sec.label}.{name}"] = (retarget(on_zero), retarget(on_one))

    elabel, estate = manifest.entry
    if elabel not in by_label or estate not in built[elabel].states:
        raise ManifestError(f"entry {elabel}.{estate} names no existing section state")
    machine = Machine(
        name="+".join(labels),
        start=f"{elabel}.{estate}",
        states=states,
    )
    return ComposedMachine(machine=machine)
