"""Meta-test: the repo's own source tree must satisfy stormlint.

This is the same gate CI's static-analysis job applies — any new
determinism or simulation-safety hazard in ``src/`` (or a tracked
``.pyc``) fails here first, with the offending location in the
assertion message.
"""

from __future__ import annotations

import os

import pytest

from repro.lint.engine import run_lint

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
BASELINE = ".stormlint-baseline.json"


@pytest.fixture(scope="module")
def result():
    """One whole-program analysis of the tree, shared by every check
    below (the baseline only marks findings; suppression staleness is
    computed the same with or without it)."""
    return run_lint(
        ["src", "tests"],
        root=REPO_ROOT,
        baseline_path=BASELINE if os.path.exists(os.path.join(REPO_ROOT, BASELINE)) else None,
    )


def test_source_tree_clean_modulo_baseline(result):
    assert not result.errors, result.errors
    locations = [f"{f.location()} {f.rule_id}: {f.message}" for f in result.new]
    assert not locations, "\n".join(locations)
    assert result.files_checked > 100  # the whole tree was really walked


def test_baseline_has_no_stale_entries(result):
    """Fixed debt must be pruned so the baseline only shrinks honestly."""
    path = os.path.join(REPO_ROOT, BASELINE)
    if not os.path.exists(path):
        return
    assert result.stale_baseline == [], (
        "stale baseline entries (regenerate with --write-baseline): "
        f"{result.stale_baseline}"
    )


def test_no_stale_suppressions(result):
    """Every ``# stormlint: ignore[...]`` must still shield a live
    finding; dead ones are removed with ``--prune-suppressions``."""
    stale = [
        f"{s.path}:{s.line} dead ids {list(s.dead_ids)}"
        for s in result.stale_suppressions
    ]
    assert not stale, (
        "stale suppressions (run `python -m repro.lint src tests "
        "--prune-suppressions`):\n" + "\n".join(stale)
    )
