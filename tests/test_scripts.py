"""The report scripts print the same bytes as when their outputs were recorded.

``calibrate_signs.py`` prints ``terms`` dicts verbatim, so these pins also
hold the order in which a value hands out its frames and monomials.
``solve_costs.py`` prints timings, so only the deterministic columns of its
factorisation table are pinned: which systems are factored, their shapes,
ranks and replays.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED_MD5 = {
    "calibrate_signs.py": "537559ede41374e487504bc8904629c7",
    "obstruction_profile.py": "65bb99cf0a06e6b8164029c30777dcc9",
}


def _run(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert r.returncode == 0, r.stderr.decode()
    return r.stdout


@pytest.mark.parametrize("script", sorted(PINNED_MD5))
def test_script_output_is_pinned(script):
    out = _run(script)
    assert hashlib.md5(out).hexdigest() == PINNED_MD5[script], out.decode()


def test_solve_costs_factors_the_pinned_systems():
    """(task, rows x cols, nonzeros, rank, rhs) of every factorisation of seed 1."""
    table = _run("solve_costs.py", "--seed", "1", "--repeat", "1").decode().split("\n\n")[1]
    rows = [line.split()[1:6] for line in table.splitlines()[1:-1]]
    assert rows == [
        ["cli:mc-solve-n5", "60x210", "144", "55", "2"],
        ["cli:hoch-primitive-n3", "171x100", "198", "80", "4"],
        ["cli:mc-solve-n6", "140x420", "420", "125", "2"],
        ["cli:hoch-primitive-hkr-n2", "5x6", "5", "4", "2"],
    ]


def test_solve_costs_credits_later_runs_to_the_blocks_the_first_run_built():
    """A block the primitive search keeps is replayed, not factored, in the
    second run; the table lists the same systems as after one run."""
    def systems(repeat):
        table = _run("solve_costs.py", "--seed", "1", "--repeat", repeat).decode().split("\n\n")[1]
        return [line.split()[1:6] for line in table.splitlines()[1:-1]]

    assert systems("2") == systems("1")


def test_task_costs_compares_two_checkouts_family_by_family():
    """One round on this checkout twice: every `hochschild` family appears
    once, with its task count, no failed task and a change column."""
    out = _run("task_costs.py", "hochschild", str(ROOT), str(ROOT), "--repeat", "1").decode()
    lines = out.splitlines()
    assert lines[:2] == [f"[0] {ROOT}", f"[1] {ROOT}"]
    assert lines[2].split() == ["family", "tasks", "[0]", "failed", "[1]", "failed", "[0]", "ms", "[1]", "ms", "change", "faster"]
    rows = {line.split()[0]: line.split() for line in lines[3:]}
    families = {f"{ident}-n{n}" for n in (2, 3) for ident in (
        "jacobi", "delta-squared", "delta-as-bracket", "contraction", "cup-derivation")}
    assert set(rows) == families | {"total"}
    assert rows["total"][1] == "612"
    for row in rows.values():
        assert row[2:4] == ["0", "0"] and row[6].endswith("%") and row[7] in ("0/1", "1/1")


def test_task_costs_compares_the_solve_families():
    """One round of `solve` on this checkout twice: each of its four
    families appears once, with no failed task."""
    out = _run("task_costs.py", "solve", str(ROOT), str(ROOT), "--repeat", "1").decode()
    rows = {line.split()[0]: line.split() for line in out.splitlines()[3:]}
    assert set(rows) == {
        "cli:hoch-primitive-n3", "cli:hoch-primitive-hkr-n2", "cli:mc-solve-n5", "cli:mc-solve-n6", "total"}
    assert rows["total"][1] == "5"
    for row in rows.values():
        assert row[2:4] == ["0", "0"]


def test_alternation_keeps_sides_apart_and_flips_their_order():
    """The driver's alternation with a stub runner: every side gets one
    result per round and task, the side order flips every round, and one
    checkout given twice still makes two sides."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import _ab
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    calls = []

    def run(checkout, task):
        calls.append((checkout, task))
        return len(calls)

    rounds, tasks = 3, ["t0", "t1"]
    out = _ab.alternate(["a", "b"], tasks, rounds, run)
    assert [c for c, _ in calls] == ["a", "b"] * 2 + ["b", "a"] * 2 + ["a", "b"] * 2
    assert [t for _, t in calls] == [t for _ in range(rounds) for t in tasks for _ in "ab"]
    assert all(len(side) == rounds for per_task in out for side in per_task)

    del calls[:]
    out = _ab.alternate(["a", "a"], tasks, rounds, run)
    assert len(calls) == rounds * len(tasks) * 2
    for t, (first, second) in enumerate(out):
        assert len(first) == len(second) == rounds
        assert set(first).isdisjoint(second)
        # the first call of each pair goes to side 0 in even rounds, side 1 in odd ones
        assert [(x < y) == (r % 2 == 0) for r, (x, y) in enumerate(zip(first, second))] == [True] * rounds
