"""The pattern reader against the token reader it stands in front of.

machine.parse_document first tries machine._read_by_pattern, which reads
a plain machine file with one regex match per state entry, and falls back
to machine._read_by_tokens when it returns None. The pattern reader may
decline any text, but what it does read must be exactly what the token
reader reads, and it must decline every text that the token reader
rejects. The inputs are hand cases for the spellings the patterns decline
and for two faults a looser pattern had, entries with zero to five
transitions (the entry match captures the first two and leaves the rest
to a second pattern), and seeded mutation fuzz over the shipped, library
and ring documents and over the long entries. Every shipped, library and
ring document and every long entry must be read by the pattern reader,
so that a pattern which declines everything fails here rather than only
in the benchmark, and so must every machine file the benchmark's
workloads write.
"""

import random

import pytest

from conftest import _ring_document, bench_jobs, wide_document
from test_reader_differential import FILES_ON_DISK
from xdicheck.machine import _read_by_pattern, _read_by_tokens
from xdicheck.sexpr import ParseError

DOCUMENTS = [
    *(path.read_text(encoding="utf-8") for path in FILES_ON_DISK if path.suffix == ".xdi"),
    *(_ring_document(length, polarity) for length in (2, 24, 800) for polarity in ("idle", "blocked")),
    *(wide_document(k) for k in (1, 5, 11)),
]


def _tokens_outcome(text):
    """The token reader's document, or the message, line and column of its error."""

    try:
        return _read_by_tokens(text)
    except ParseError as error:
        return error.message, error.line, error.column


def _assert_agrees(text):
    """The pattern reader's document, which must be the token reader's, or None."""

    parsed = _read_by_pattern(text)
    if parsed is not None:
        assert parsed == _tokens_outcome(text), text
    return parsed


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_every_shipped_ring_and_wide_document_is_read_by_the_patterns(index):
    assert _assert_agrees(DOCUMENTS[index]) is not None


def test_every_benchmark_machine_file_is_read_by_the_patterns(monkeypatch):
    files = (file for job in bench_jobs(monkeypatch) for file in job.files)
    texts = dict.fromkeys(text for name, text in files if name.endswith(".xdi"))
    assert len(texts) > 50
    for text in texts:
        assert _assert_agrees(text) is not None, text


_TWO = "(machine m (s0 t box (((a R I) s1))) (s1 nil box (((a A O) s0))))"
# (text, which reader reads it: "pattern", "tokens", or neither: "error")
HAND_CASES = [
    # A comment is pinned to the end of its line: ending it early would
    # read the entry it hides.
    ("(machine m (s0 t box ()) ;(s1 nil box ())\n)", "pattern"),
    ("(machine m (s0 t box ()) ;(s1 nil box ()))", "error"),
    # Inside an entry, comments go to the token reader: the transition
    # list is searched only when it holds nothing but transitions.
    ("(machine m (s0 t; box (((a R I) s0))))", "error"),
    ("(machine m (s0 t box (((a R I) s0) ; ((b R I) s0)\n)))", "tokens"),
    ("(machine m (s0 t box (((a R I) s0) ;\n)))", "tokens"),
    ("(machine m\n  ; the states\n  (s0 t box (((a R I) s0)))) ; done", "pattern"),
    # whitespace: ASCII only inside and between entries
    ("(machine m\r\n\t(s0 t box\x0b(\x0c((a R I)s0))))\r\n", "pattern"),
    ("(machine m (s0 t box(((a R I)s0)))(s1 nil transient()))", "pattern"),
    ("(machine\u00a0m (s0 t box ()))", "tokens"),
    ("(machine m (s0\u3000t box ()))", "tokens"),
    ("(machine m (s0 t box ())\x1c)", "tokens"),
    # case: keywords as lower() and upper() read them, ASCII letters only
    ("(machine m (s0 T BOX (((a r i) s1))) (s1 NIL Transient (((a A o) s0))))", "pattern"),
    ("(machine m (s0 t box (((a R \u0131) s0))))", "tokens"),
    ("(machine m (s0 t tran\u017fient (((a R I) s0))))", "error"),
    ("(machine m (s0 t box (((\u212a R I) s0))))", "error"),
    ("(MACHINE m (s0 t box ()))", "error"),
    # names, states and the trailer
    ("(machine m (a.b t box ()))", "error"),
    ("(machine m (s0 t box (((a R I) 1s))))", "error"),
    ("(machine m.x (s0 t box ()))", "error"),
    ("(machine m (s0 t box ()) (s0 nil box ()))", "error"),
    ("(machine m)", "error"),
    ("(machine m (s0 t box () x))", "error"),
    (_TWO + ' (conditions (c "blocked(a)"))', "pattern"),
    (_TWO + "\n(conditions)\n; end", "pattern"),
    (_TWO + " (other)", "error"),
    (_TWO + ' (conditions (c "x")) (conditions)', "error"),
    (_TWO + ' (conditions (c "x")) )', "error"),
    (_TWO + ' "', "error"),
    (_TWO + ")", "error"),
    (_TWO + "\u00a0\n", "pattern"),  # the trailer is read by tokens
]


@pytest.mark.parametrize("text, reader", HAND_CASES)
def test_hand_cases(text, reader):
    assert (_assert_agrees(text) is not None) == (reader == "pattern"), text
    outcome = _tokens_outcome(text)
    assert isinstance(outcome[0], str) == (reader == "error"), outcome


def _entries(*counts):
    """A machine whose state si has counts[i] transitions, on wires h0, h1, ..."""

    def transitions(index, count):
        return " ".join(f"((h{k} {'RA'[k % 2]} {'IO'[k % 2]}) s{(index + k) % len(counts)})" for k in range(count))

    init = ("t",) + ("nil",) * (len(counts) - 1)
    states = " ".join(f"(s{i} {flag} box ({transitions(i, n)}))" for i, (flag, n) in enumerate(zip(init, counts)))
    return f"(machine many {states})"


# The entry match captures the first two transitions; a third and later
# ones are read from the text it returns for the rest.
MANY_CASES = [
    (_entries(0), [0]),
    (_entries(1), [1]),
    (_entries(2), [2]),
    (_entries(3), [3]),
    (_entries(5), [5]),
    (_entries(0, 1, 2, 3, 5, 3, 2, 1, 0), [0, 1, 2, 3, 5, 3, 2, 1, 0]),
    # spellings, in every slot of the match
    (
        "(machine m (s0 T BOX (((a r i) s1) ((b A o) s0) ((c R I) s1) ((d a O) s0)))"
        " (s1 NIL Transient (((a a O) s0) ((b r I) s1) ((c A o) s0))) (s2 Nil tRaNsIeNt ()))",
        [4, 3, 0],
    ),
    # tabs and newlines inside a transition list, between and within transitions
    (
        "(machine m (s0 t box (\n\t((a R I)\ts0)\n\t(\t(b A\nO)\n s0\t)\n\t((c R\tI) s0)\n\t((d R I) s0)\n)))",
        [4],
    ),
    # a comment between entries and right after the last entry
    (
        "(machine m (s0 t box (((a R I) s1) ((b R I) s1) ((c R I) s1))) ; three\n"
        "(s1 nil box (((a A O) s0) ((b A O) s0) ((c A O) s0) ((d A O) s0) ((e A O) s0)))"
        "; five (s2 nil box ())\n)",
        [3, 5],
    ),
]


@pytest.mark.parametrize("text, counts", MANY_CASES)
def test_entries_with_any_number_of_transitions_are_read_by_the_patterns(text, counts):
    parsed = _assert_agrees(text)
    assert parsed is not None, text
    assert [len(entry.transitions) for entry in parsed[0].states] == counts


ALPHABET = (
    ";", '"', "(", ")", " ", "\n", "\u00a0", "\u0131", "\u017f", "\u212a", ".", "1",
    "machine", "conditions", "t", "nil", "box", "transient", "R", "A", "I", "O", "s0",
)


def _mutant(rng, text):
    """text after one to three inserts, deletions or case swaps."""

    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        else:
            text = text[:at] + text[at:at + 1].swapcase() + text[at + 1:]
    return text


def test_mutants_are_read_alike_or_declined():
    rng = random.Random(22)
    seeds = [text for text in DOCUMENTS if len(text) < 3000]
    read = declined = 0
    for _ in range(3000):
        text = _mutant(rng, rng.choice(seeds))
        if _assert_agrees(text) is None:
            declined += 1
        else:
            read += 1
    # Both branches are exercised: most mutants still read, many do not.
    assert read > 1000 and declined > 500, (read, declined)


def test_mutants_of_long_entries_are_read_alike_or_declined():
    # Mutants of entries with three and five transitions, so that a fault
    # in the text read after the first two transitions shows here.
    rng = random.Random(33)
    seeds = [text for text, counts in MANY_CASES if max(counts) > 2]
    long = declined = 0
    for _ in range(1500):
        parsed = _assert_agrees(_mutant(rng, rng.choice(seeds)))
        if parsed is None:
            declined += 1
        elif max(len(entry.transitions) for entry in parsed[0].states) > 2:
            long += 1
    # Both branches are exercised: many mutants with a long entry still
    # read, many do not.
    assert long > 300 and declined > 500, (long, declined)
