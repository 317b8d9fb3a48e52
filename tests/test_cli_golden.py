"""The CLI byte contract: every command of the bank in ``cli_bank`` gives the
exit code, stdout, stderr and output file recorded in ``cli_golden.json``."""

from __future__ import annotations

import json

from cli_bank import GOLDEN, run_bank


def test_every_command_gives_its_recorded_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = run_bank(tmp_path)
    assert sorted(table) == sorted(golden), "the bank's command lines differ from the recorded ones"
    changed = [cmd for cmd, digest in table.items() if golden[cmd] != digest]
    assert not changed, f"{len(changed)} commands changed their output:\n" + "\n".join(changed)
