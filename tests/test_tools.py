"""Smoke test of the repository tools: they run on this checkout and print what they promise."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_pins_the_settable_values():
    # every value a user can set is a flag, a settings field or an optional
    # parameter of an exported function, and src/ should shrink; a new
    # value, or code lines beyond the ceiling, is a deliberate change of
    # this pin
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    counts = {name: int(n) for n, name in re.findall(
        r"^\s*(\d+) (flags in total|AnalysisSettings fields|optional parameters)",
        proc.stdout, re.M)}
    assert counts == {"flags in total": 15, "AnalysisSettings fields": 5,
                      "optional parameters": 9}
    total = re.search(r"^\s*(\d+) total$", proc.stdout, re.M)
    assert total and 0 < int(total.group(1)) <= 1436


def test_output_digests_runs_every_benchmark_case_at_one_seed():
    # every output-preserving change is compared byte for byte by this tool:
    # each case of the three workloads prints one line, exits 0 and writes a
    # CSV, whose digest is then not that of empty input
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"),
                           str(ROOT), "101"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 18
    empty = hashlib.sha256(b"").hexdigest()
    for line in lines:
        assert line["seed"] == 101 and line["rc"] == 0 and line["csv"] != empty, line
