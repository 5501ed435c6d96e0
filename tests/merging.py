"""Reference merge comparison: both machines run on every scenario.

`verify_merge` runs the merged machine only when the original's run does
not provably map onto it; this module runs both machines on every
scenario and compares their outcomes, so the tests can hold
`verify_merge` against it.
"""

from beaverkit.harness import entry_state, execute_scenario
from beaverkit.machine import RESERVED_NAMES
from beaverkit.optimize import (
    MergeVerdict,
    ScenarioComparison,
    _changed_entries,
    _locate_divergence,
    _probe,
    _retarget,
    merge_alias,
)


def retargeted_changes(original, merged, alias):
    """`_changed_entries` by definition: each action of `original`, its
    target renamed through the alias, against the merged state's action."""
    return {
        (name, sym)
        for name, actions in original.states.items()
        for sym, act in enumerate(actions)
        if _retarget(act, alias) != merged.action(alias.get(name, name), sym)
    }


def compared_merge(original, merged, scenarios, plan=None):
    """`verify_merge`'s verdict, from a run of each machine per scenario."""
    alias = merge_alias(plan) if plan else {}
    comparisons = []
    for scn in scenarios:
        out_a = execute_scenario(scn, original)
        start_b = entry_state(scn, merged, alias)
        if start_b not in merged.states and start_b not in RESERVED_NAMES:
            # the merged machine has no state to start in: it does not run
            detail = f"entry {start_b} is not a state of {merged.name}"
            comparisons.append(ScenarioComparison(
                scn.name, False, out_a.kind, "none", out_a.steps, 0, 0, detail
            ))
            continue
        out_b = execute_scenario(scn, merged, alias=alias)
        same = (
            out_a.kind == out_b.kind
            and out_a.steps == out_b.steps
            and alias.get(out_a.config.state, out_a.config.state) == out_b.config.state
            and out_a.config.tape.content_equal(out_b.config.tape)
        )
        comp = ScenarioComparison(scn.name, same, out_a.kind, out_b.kind, out_a.steps, out_b.steps)
        if not same:
            comp.first_divergence, comp.detail = _locate_divergence(
                original, merged, scn, alias, out_a, out_b,
                _probe(original, _changed_entries(original, merged, alias)),
            )
        comparisons.append(comp)
    return MergeVerdict(all(c.equivalent for c in comparisons), comparisons)
