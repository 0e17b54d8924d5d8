"""Block/idle labeling by parity propagation, plus ambiguity detection."""

import gc
import weakref

import pytest

from labeling_sweep import sweep
from xdicheck.checker import cross_validate
from xdicheck.labeling import (
    AmbiguousMachineError,
    UnknownHandshakeError,
    check_unambiguous,
    compute_block_idle,
)
from xdicheck.machine import parse_document

BLOCKING_A = {"s1", "s3", "s4", "s5", "s7", "s8", "s9"}
IDLING_A = {"s0", "s2", "s6"}


def test_join_labels_for_a(join):
    labels = compute_block_idle(join, "a")
    assert {s for s, odd in labels.items() if odd} == BLOCKING_A
    assert {s for s, odd in labels.items() if not odd} == IDLING_A


def test_join_labels_for_b_mirror_a(join):
    labels = compute_block_idle(join, "b")
    assert {s for s, odd in labels.items() if odd} == {
        "s2", "s3", "s4", "s5", "s6", "s8", "s9"
    }
    assert {s for s, odd in labels.items() if not odd} == {"s0", "s1", "s7"}


def test_join_labels_for_c(join):
    labels = compute_block_idle(join, "c")
    # c.R flips at s3 -> s4, c.A flips back at s4 -> s5
    assert {s for s, odd in labels.items() if odd} == {"s4"}


def test_labels_are_plain_booleans(join):
    labels = compute_block_idle(join, "a")
    assert labels["s1"] is True
    assert labels["s0"] is False


def test_blocking_and_idling_helpers(join):
    labels = compute_block_idle(join, "a")
    assert labels["s3"]
    assert not labels["s6"]


def test_parity_toggles_on_both_phases():
    text = """
    (machine loop
      (s0 t box (((a R I) s1)))
      (s1 nil transient (((a A O) s0))))
    """
    labels = compute_block_idle(parse_document(text)[0], "a")
    assert labels == {"s0": False, "s1": True}


def test_unknown_handshake_raises(join):
    with pytest.raises(UnknownHandshakeError):
        compute_block_idle(join, "zz")
    with pytest.raises(UnknownHandshakeError):
        check_unambiguous(join, "zz")


def test_library_style_machines_are_unambiguous(join, distributor):
    for mach in (join, distributor):
        for handshake in sorted(mach.handshakes):
            report = check_unambiguous(mach, handshake)
            assert not report.ambiguous
            assert report.witnesses == ()


def test_twopath_counterexample_is_ambiguous(twopath):
    report = check_unambiguous(twopath, "a")
    assert report.ambiguous
    conflict = report.witnesses[0]
    assert conflict.state == "s3"
    assert conflict.idling_path == ("s0", "s2", "s3")
    assert conflict.blocking_path == ("s0", "s1", "s3")


def test_twopath_ambiguity_is_per_handshake(twopath):
    # both routes to s3 cross b exactly once, so b labels are consistent
    assert not check_unambiguous(twopath, "b").ambiguous
    # only the s2 route crosses h, so h conflicts at s3 as well
    assert check_unambiguous(twopath, "h").ambiguous


def test_compute_block_idle_refuses_ambiguous_machine(twopath):
    with pytest.raises(AmbiguousMachineError) as info:
        compute_block_idle(twopath, "a")
    assert info.value.report.ambiguous


SOFTCLASH = """
(machine softclash
  (s0 t box ({first} {second}))
  (s1 nil box (((b R I) s3)))
  (s2 nil box (((h R I) s3)))
  (s3 nil transient ()))
"""


def test_transient_conflict_is_ambiguity_in_either_order():
    # s3 is transient and reached with both parities, via s1 (crossing a)
    # and via s2 (not crossing it); swapping s0's transitions changes nothing
    moves = ("((a R I) s1)", "((b R I) s2)")
    for first, second in (moves, moves[::-1]):
        mach = parse_document(SOFTCLASH.format(first=first, second=second))[0]
        report = check_unambiguous(mach, "a")
        assert report.ambiguous
        assert [w.state for w in report.witnesses] == ["s3"]
        assert report.witnesses[0].idling_path == ("s0", "s2", "s3")
        assert report.witnesses[0].blocking_path == ("s0", "s1", "s3")
        with pytest.raises(AmbiguousMachineError) as info:
            compute_block_idle(mach, "a")
        assert info.value.report is report


def test_labels_match_the_parity_oracle_in_every_transition_order():
    # Every valid machine of at most 3 box states over wires a.R and b.A,
    # with at most 2 transitions per state, and every machine of at most 2
    # states of either kind over the same wires. The larger bound runs from
    # tests/labeling_sweep.py.
    assert sweep("a.R,b.A", 3, 2, kinds=("box",)) == (2765, 5370)
    assert sweep("a.R,b.A", 2, 2) == (316, 560)


def test_first_visit_wins_on_diamonds(join):
    # s5 branches to s7 then s6; both rejoin s0 with equal parity, so the
    # propagation must terminate with a single consistent assignment
    labels = compute_block_idle(join, "a")
    assert labels["s0"] is False


def test_results_are_cached_by_machine_and_handshake(join):
    first = compute_block_idle(join, "a")
    second = compute_block_idle(join, "a")
    assert first is second


def test_ambiguous_machine_raises_on_every_call(twopath):
    for _ in range(3):
        with pytest.raises(AmbiguousMachineError):
            compute_block_idle(twopath, "a")
    assert check_unambiguous(twopath, "a") is check_unambiguous(twopath, "a")


def test_equal_machines_keep_separate_memos(join_document):
    first = parse_document(join_document)[0]
    second = parse_document(join_document)[0]
    assert first == second
    assert compute_block_idle(first, "a") is compute_block_idle(first, "a")
    assert compute_block_idle(first, "a") is not compute_block_idle(second, "a")
    assert compute_block_idle(first, "a") == compute_block_idle(second, "a")


def test_memo_tables_die_with_their_machine(join_document):
    # A name no other test uses: a table keyed by machine equality would keep
    # the first equal machine it saw, not this one.
    mach = parse_document(join_document.replace("(machine join", "(machine join_collected"))[0]
    assert mach.name == "join_collected"
    assert cross_validate(mach) == ()
    compute_block_idle(mach, "a")
    ref = weakref.ref(mach)
    del mach
    gc.collect()
    assert ref() is None
