"""Golden bytes of the four demos: their standard output and the CSV files they write.

Each demo runs in a fresh interpreter, with a temporary directory as its
working directory, against the package in this checkout's src/. The
digests were recorded before ``solve`` took B** from the slice-wise scan
of a rate table; demos 01 and 02 integrate the transformed system, 04
runs both verifiers, and its output was recorded again when the
transformed operators came to be mapped from the forward ones.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> (sha256 of stdout, {CSV file name: sha256 of its bytes})
DEMOS = {
    "01_sharp_rate_birth_death.py": (
        "284e0cd4d23a1f40a236e7386c3e38acc53834769b816db23ea3360de7791ffa", {}),
    "02_time_varying_envelopes.py": (
        "2cf4c0641e6d876c04c909f22bdb2071f37aa937c247bb59fb7f6297b61084ae",
        {"envelopes.csv": "1ed964b71ab54ebbfd84ad3421a4f3899e8b68de4eb3c02ad3f1f5fbc0944f0a"}),
    "03_batch_transition_classes.py": (
        "e9bb244d75394b61811d71b221f515ded9617cbed5e33d54c1dd9f951bb1e931", {}),
    "04_trajectory_verification.py": (
        "3256fe2ce3b61135e601c1cdee91ac7102fd8e393a296ecba7394e5e7089ea92",
        {"verify_bounds.csv": "660c2ed65fd6a3b77bc2017df518d7dffe4453876a1a047b09e08e720065d60d",
         "verify_coupling.csv":
             "bf463687e93dafe6850aa658a9e6936adf2c1c04c2c7e26f7ffe9ed29ccaaeac"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_prints_and_writes_its_golden_bytes(tmp_path, demo):
    stdout_digest, csv_digests = DEMOS[demo]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    assert _sha(proc.stdout) == stdout_digest
    assert {f.name: _sha(f.read_bytes()) for f in tmp_path.glob("*.csv")} == csv_digests
