"""Cross validation by answer sets: cross_validate against the per-query
loop it replaced (tests/checker_reference.py), record for record and
error for error, and full agreement over a bounded-exhaustive slice of
machines (tests/oracle_sweep.py runs larger bounds)."""

import pytest

import oracle_sweep
from checker_reference import reference_cross_validate
from conftest import wide_document
from test_env_answers import _outcome
from xdicheck.checker import Disagreement, cross_validate
from xdicheck.machine import parse_document

BOUNDS = (None, 0, 1, 2, 3, -1)


@pytest.fixture(scope="module")
def documents(machines_dir, ring_document):
    shipped = [(machines_dir / name).read_text() for name in ("join.xdi", "distributor.xdi", "ambiguous.xdi")]
    rings = [ring_document(length, polarity) for length in (8, 14) for polarity in ("idle", "blocked")]
    lone = "(machine lone (s0 t box ()))"
    return shipped + [wide_document(2), wide_document(3)] + rings + [lone]


@pytest.mark.parametrize("max_states", [5, 20])
def test_cross_validate_matches_the_per_query_loop(documents, max_states):
    disagreements = 0
    for text in documents:
        for bound in BOUNDS:
            # A fresh machine per side, so neither reads the other's memo.
            fast = _outcome(lambda: cross_validate(parse_document(text)[0], bound, max_states))
            slow = _outcome(lambda: reference_cross_validate(parse_document(text)[0], bound, max_states))
            assert fast == slow, (text.split()[1], bound, max_states)
            if fast and isinstance(fast[0], Disagreement):
                disagreements += len(fast)
    # Short bounds cut the oracle's walks, so real disagreements are compared;
    # under the 5-state limit only the one-state machine gets that far.
    assert disagreements == (19906 if max_states == 20 else 0)


def test_cross_validate_agrees_on_a_slice_of_every_small_machine():
    """Every valid, unambiguous machine over a mixed-direction alphabet:
    of at most 2 states with at most 2 transitions each, and of at most 3
    states with at most 1."""

    alphabet = "a.R.I,a.A.O,b.R.O,b.A.I,c.R.I,c.A.O"
    assert oracle_sweep.sweep(alphabet, 2, 2) == (146, 17910)
    assert oracle_sweep.sweep(alphabet, 3, 1) == (938, 4860)
