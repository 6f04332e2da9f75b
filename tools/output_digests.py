"""Digest every benchmark case's outputs, to compare two checkouts byte for byte.

    python3 tools/output_digests.py CHECKOUT SEED [SEED ...] > digests.jsonl

runs every case of every workload in bench/workloads.py, at each seed,
through ``ctmc_bounds.cli.main`` of CHECKOUT/src, one BLAS thread, as the
benchmark does. Model files and the CSV go to fixed paths under the
temporary directory, so that messages naming them read the same from any
checkout. Each case prints one JSON line: its exit code and the sha256 of
its stdout, stderr and CSV. Compare two checkouts with ``diff``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) < 3:
        print("usage: python3 tools/output_digests.py CHECKOUT SEED [SEED ...]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = (Path(argv[1]) / "src").resolve()
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads
    from ctmc_bounds import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ctmc_bounds was imported from {cli.__file__}, not {src}")
    work = Path(tempfile.gettempdir()) / "ctmc-bounds-digests"
    csv_path = work / "out.csv"
    for seed in map(int, argv[2:]):
        for workload in workloads.WORKLOADS:
            cases = workloads.make_cases(workload, seed)
            paths = workloads.write_models(cases, work / "models")
            for case in cases:
                csv_path.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = cli.main([case.command, str(paths[case.name]), *case.flags,
                                       "--csv", str(csv_path)])
                    except Exception as exc:  # recorded as an outcome like any other
                        rc = f"{type(exc).__name__}: {exc}"
                csv = csv_path.read_bytes() if csv_path.exists() else b""
                print(json.dumps({"workload": workload, "seed": seed, "case": case.name,
                                  "rc": rc, "stdout": _sha(out.getvalue().encode()),
                                  "stderr": _sha(err.getvalue().encode()),
                                  "csv": _sha(csv)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
