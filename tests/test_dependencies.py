"""The package runs on numpy and PyYAML alone; scipy is a test-only oracle."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_without_scipy():
    code = (
        "import sys; import roomtf, roomtf.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
