"""Golden bytes of the four demos: their standard output and the CSV files they write.

Each demo runs in a fresh interpreter, with a temporary directory as its
working directory, against the package in this checkout's src/. The
digests were recorded before ``solve`` took B** from the slice-wise scan
of a rate table; demos 01 and 02 integrate the transformed system, 04
runs both verifiers, and its output was recorded again when the
transformed operators came to be mapped from the forward ones, and again
when that map became two constant products and the half steps were fused:
its ratio columns moved by at most 9e-16 relative, and the printed
integrator margin, a round-off level step-halving divergence, went
6.67e-13 to 3.40e-13. Demo 01 was recorded again when the Perron solve
came to start birth-death chains from the symmetrizing scaling: 6 solves
became 5, the last two digits of each bracket end moved, and the printed
difference from the closed form went 0.00e+00 to 1.11e-16; lambda0 and
the weights as printed did not move. Demo 04 was recorded again when the
verifiers came to judge every start from the propagators, with no random
draws: its bounds columns moved by at most 6.5e-15 relative (the chain is
sharp, so every non-negative start attains the worst ratio), its coupling
column by at most 3.7e-11, the digits that mapping the forward
propagators loses as they decay, and its stdout lost the draw counts and
the separate exact-ratio lines; the most negative component became the
smallest entry of the forward propagators, 0 at t=0. Demo 02 calls the
bounds verifier without its draws and prints the same bytes. Demos 01
and 02 were recorded again when birth-death chains came to take B* from
its three diagonals: in demo 01 the Perron residual went 2.81e-16 to
2.38e-16, the upper end of the enclosure moved in its last two digits
(width 7.8e-16 to 6.7e-16) and the difference from the closed form went
1.11e-16 to 0.00e+00, with 5 solves as before; in demo 02's CSV h_lower,
I_lower and env_lower moved by at most 1.1e-15 relative, its stdout not.
Demo 04 was recorded again when the verifiers' scans came to write each
chunk's generators once and to form the RK4 increments from
K2 = Mm (I + h/2 M0) and its kin: its bounds columns moved by at most
2.4e-15 relative and its coupling column by at most 1.9e-12, inside the
3.3e-11 (3.5e-11 after) by which that column, mapped from the decaying
forward propagators, differs from the bounds upper column, equal to it in
exact arithmetic; the printed coupling worst ratio went 1.000000000034 to
1.000000000036 and the probability sum error 2.16e-13 to 2.17e-13.
Demo 04 was recorded again when the scan came to carry two members in the
coordinates (1^T p, L p) and the coupling verdict to read the transformed
propagator: its coupling column became its bounds upper column bit for
bit, the printed coupling worst ratio went 1.000000000036 to the bounds
value, 1.000000000000, the probability sum error line went, its column
sums being one by construction, and the most negative component, now of
the forward propagators mapped back from the scan, went 0.00e+00 to
-2.75e-17; the bounds CSV and lines did not move.
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
        "22caa4c9951aa99cd488b8fe5b867d1052dbac240f91812928b2d91f25013937", {}),
    "02_time_varying_envelopes.py": (
        "2cf4c0641e6d876c04c909f22bdb2071f37aa937c247bb59fb7f6297b61084ae",
        {"envelopes.csv": "2427b7b03c4149473ca75de814c779235e36fdfb6710189db7cf9f559bbbc325"}),
    "03_batch_transition_classes.py": (
        "e9bb244d75394b61811d71b221f515ded9617cbed5e33d54c1dd9f951bb1e931", {}),
    "04_trajectory_verification.py": (
        "316685ad199f2fb0b8bc3449925feadde8ec943cae08d72174b17ef2f7e8b033",
        {"verify_bounds.csv": "0f0c6f50e79fc23e3878387a16d1cba6d763b8c24f938282626fcff1161d896c",
         "verify_coupling.csv":
             "69d12dfaf2b60141b5bcc302b318bcd3929d5635d5e133aa5fd5987a777bd495"}),
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
