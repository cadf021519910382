"""The byte rule: the CSV files and manifests of a fixed list of ops keep their committed digests.

tools/csv_digests.py runs the 63 benchmark workload ops at seeds 1-3 and a
fixed list of off-benchmark ops through cli.main, and digests what each
writes.  A change that moves bytes on purpose regenerates
tests/csv_digests.json with that script in the same commit.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = Path(__file__).resolve().parent / "csv_digests.json"


def test_every_digest_is_the_committed_one(tmp_path):
    fresh = tmp_path / "digests.json"
    # a fresh interpreter, so that the script's one BLAS thread holds
    subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digests.py"), "--out", str(fresh)],
                   check=True, capture_output=True)
    want, got = json.loads(COMMITTED.read_text()), json.loads(fresh.read_text())
    assert got["digests"].keys() == want["digests"].keys(), "the op list changed; regenerate the file"
    moved = [f"{label}: {name}" for label, files in got["digests"].items()
             for name in files.keys() | want["digests"][label].keys()
             if files.get(name) != want["digests"][label].get(name)]
    assert not moved, (f"{len(moved)} digests moved (committed with numpy {want['numpy']}, {want['blas']}; "
                       f"this run numpy {got['numpy']}, {got['blas']}): " + "; ".join(moved))
