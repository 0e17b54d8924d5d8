"""The pattern reader against the token reader it stands in front of.

machine.parse_document first tries machine._read_by_pattern, which reads
a plain machine file with one regex match per state entry, and falls back
to machine._read_by_tokens when it returns None. The pattern reader may
decline any text, but what it does read must be exactly what the token
reader reads, and it must decline every text that the token reader
rejects. The inputs are hand cases for the spellings the patterns decline
and for two faults a looser pattern had, and a seeded mutation fuzz over
the shipped, library and ring documents. Every one of those documents
must be read by the pattern reader, so that a pattern which declines
everything fails here rather than only in the benchmark.
"""

import random

import pytest

from conftest import _ring_document, wide_document
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
