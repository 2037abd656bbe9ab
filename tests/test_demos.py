"""The demos run to completion and print the numbers their stories claim."""
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(name: str) -> str:
    done = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_ir_basics_demo():
    out = _run("01_ir_basics.py")
    for line in ("verifier says: ok", "top func @case1", "return value     : "):
        assert line in out


def test_case_studies_demo():
    out = _run("02_case_studies.py")
    for line in ("pragma-only expansion: 92042 cycles",
                 "main-loop trip count after restructuring: 370",
                 "restructured: 74090 cycles",
                 "before: 11608 cycles, achieved II 116",
                 "after: 502 cycles, achieved II 4 == rec_mii 4"):
        assert line in out
