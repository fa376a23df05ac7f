"""Print every pin's current digest beside its checked-in value.

The five pins are the checked-in outputs a refactor must leave alone:
the golden chain metrics and TDG digest
(``tests/core/test_golden_regression.py``), the golden replay digest
(``tests/execution/test_golden_replay.py``), the regress baseline
(``tests/obs/test_regress.py``) and the node fingerprint
(``tests/node/test_golden_fingerprint.py``).  Each is recomputed with
its own test module's function and printed beside the checked-in
value, one line per pin; a file pin prints the first 16 hex digits of
the SHA-256 of its rendered and of its checked-in text.  Exit status 1 on any difference.  Not
collected by pytest; run from the repository root::

    PYTHONPATH=src:. python tests/pins.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.obs.regress import flatten_snapshot, load_snapshot
from tests.core import test_golden_regression as golden
from tests.execution import test_golden_replay as replay
from tests.node import test_golden_fingerprint as node
from tests.obs import test_regress as regress


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_pin(path: Path, render) -> tuple[str, str, str]:
    """``(name, current, checked in)`` of a byte-pinned file."""
    return path.name, text_digest(render()), text_digest(path.read_text())


def regress_pin() -> tuple[str, str, str]:
    """Keys compared and verdict against the baseline's own key count."""
    baseline = load_snapshot(regress.BASELINE)
    baseline.pop("tolerances", None)
    report = regress.checked_in_report()
    compared = len(report.entries) - len(report.new_keys)
    current = (
        f"{compared} keys, {len(report.regressions)} regressions, "
        f"{len(report.new_keys)} new"
    )
    expected = f"{len(flatten_snapshot(baseline))} keys, 0 regressions, 0 new"
    return regress.BASELINE.name, current, expected


def node_pin() -> tuple[str, str, str]:
    def fingerprint(text: str) -> str:
        return json.loads(text)["fingerprint"][:16]

    return (
        node.GOLDEN_PATH.name,
        fingerprint(node.render_fingerprint()),
        fingerprint(node.GOLDEN_PATH.read_text()),
    )


def pins() -> list[tuple[str, str, str]]:
    return [
        file_pin(golden.GOLDEN_PATH, golden.render_golden),
        file_pin(golden.TDG_DIGEST_PATH, golden.render_tdg_digest),
        file_pin(
            replay.GOLDEN_PATH,
            lambda: replay.render_digest(
                replay.replay_golden(backend="serial")
            ),
        ),
        regress_pin(),
        node_pin(),
    ]


def main() -> int:
    found = pins()
    moved = 0
    print(f"      {'pin':26s} {'current':34s} checked in")
    for name, current, expected in found:
        moved += current != expected
        status = "ok" if current == expected else "MOVED"
        print(f"{status:5s} {name:26s} {current:34s} {expected}")
    print(f"{len(found) - moved} of {len(found)} pins unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
