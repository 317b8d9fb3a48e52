"""The work census: every benchmark operation of ``work_bank`` does the
solver work recorded in ``work_golden.json``."""

from __future__ import annotations

import json

from work_bank import GOLDEN, run_census


def test_every_operation_does_its_recorded_work(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = run_census(tmp_path)
    assert sorted(table) == sorted(golden), "the census's operations differ from the recorded ones"
    changed = [f"{key}: {golden[key]} -> {work}" for key, work in table.items() if golden[key] != work]
    assert not changed, f"{len(changed)} operations changed their work:\n" + "\n".join(changed)
