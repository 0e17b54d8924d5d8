"""The whole command-line output on the shipped files matches its record.

tests/cli_digests.json holds, per group of calls, the digest that
tests/cli_digest.py computes; see there for the calls and for how to
list one group's digests when a group differs.
"""

from __future__ import annotations

import json

import cli_digest


def test_cli_output_on_the_shipped_files_matches_the_record():
    recorded = json.loads(cli_digest.RECORD.read_text())
    found = cli_digest.digests()
    assert sorted(found) == sorted(recorded)
    assert [key for key in recorded if found[key] != recorded[key]] == []
