"""The doubling-sweep harness (tests/sweep.py): each family's smallest
points measured in this process, with their work counts pinned, the rows'
keys, the timer, the slope and the --point arguments."""

import weakref

import pytest

import sweep
from xdicheck import checker, formulas

KEYS = {
    "product": [
        "kind", "size", "broken", "states", "edges", "deadlock", "compose_s", "analyze_s", "peak_rss_mb"
    ],
    "parse": ["kind", "size", "states", "cold_s", "first_s", "best_s", "peak_rss_mb"],
    "condition": ["kind", "size", "envs", "explorations", "holds", "first_s", "best_s", "peak_rss_mb"],
    "oracle": [
        "kind", "size", "states", "envs", "queries", "disagreements", "first_s", "best_s", "peak_rss_mb"
    ],
}


@pytest.mark.parametrize(
    "family, point, counts",
    [
        ("product", ("chain", "6", "0"), {"states": 1458, "edges": 5184, "deadlock": False}),
        ("product", ("tree", "1", "1"), {"states": 22, "edges": 32, "deadlock": True}),
        ("product", ("tree2", "1", "0"), {"states": 2604, "edges": 9882, "deadlock": False}),
        ("parse", ("ring", "400"), {"states": 402}),
        ("parse", ("library", "6"), {"states": 43}),
        ("condition", ("wide", "6"), {"envs": 128, "explorations": 8, "holds": True}),
        ("oracle", ("wide", "3"), {"states": 8, "envs": 16, "queries": 2048, "disagreements": 0}),
    ],
)
def test_smallest_points_do_the_pinned_work(family, point, counts):
    row = sweep.FAMILIES[family].measure(*point)
    assert list(row) == KEYS[family]
    assert {key: row[key] for key in counts} == counts
    assert (row["kind"], row["size"]) == (point[0], int(point[1]))
    for key in sweep.FAMILIES[family].times:
        assert row[key] > 0
    assert row[sweep.FAMILIES[family].size] > 0
    assert any(point in points for points in sweep.FAMILIES[family].groups)


def test_condition_puts_back_reach_when_verification_raises(monkeypatch):
    reach = checker._reach

    def boom(form, machine):
        assert checker._reach is not reach, "the counting wrapper is not installed"
        raise RuntimeError("boom")

    monkeypatch.setattr(formulas, "verify_condition", boom)
    with pytest.raises(RuntimeError):
        sweep.measure_condition("wide", "6")
    assert checker._reach is reach


def test_timed_frees_each_argument_before_the_next_setup():
    class Box:
        pass

    alive = weakref.WeakSet()

    def setup():
        assert not alive
        box = Box()
        alive.add(box)
        return box

    result, first_s, best_s = sweep.timed(lambda box: box.__class__, 4, setup)
    assert result is Box
    assert 0 <= best_s <= first_s


def test_slope_fits_a_power_law():
    rows = [{"n": n, "t": 3.0 * n**2} for n in (10, 20, 40)]
    assert sweep.slope(rows, "t", "n") == pytest.approx(2.0)
    assert sweep.slope(rows[:1], "t", "n") is None
    assert sweep.slope([{"n": 5, "t": 1.0}, {"n": 5, "t": 2.0}], "t", "n") is None


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--point", "nope", "wide", "3"],
        ["--point", "oracle", "wide"],
        ["--point", "product", "ring", "6", "0"],
    ],
)
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit:
        sweep.main(argv)
    assert exit.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_point_prints_its_row(capsys):
    assert sweep.main(["--point", "oracle", "wide", "3"]) == 0
    assert '"queries": 2048' in capsys.readouterr().out
