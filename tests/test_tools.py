"""Smoke test of the repository tools: they run on this checkout and print what they promise."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_pins_the_settable_values():
    # every value a user can set is a flag, a settings field or an optional
    # parameter of an exported function; a new one is a deliberate change
    # of this pin
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    counts = {name: int(n) for n, name in re.findall(
        r"^\s*(\d+) (flags in total|AnalysisSettings fields|optional parameters)",
        proc.stdout, re.M)}
    assert counts == {"flags in total": 15, "AnalysisSettings fields": 5,
                      "optional parameters": 9}
    total = re.search(r"^\s*(\d+) total$", proc.stdout, re.M)
    assert total and int(total.group(1)) > 0
