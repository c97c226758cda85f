"""Property test: `abc-eqf run` over a mutated `abc-eqf simulate` log either
runs (exit 0) or stops with a data error (exit 2); it never raises, and
numpy never warns of an overflow or invalid value on the way."""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abc_eqf.cli import main

# half a second: 100 gyro rows, 50 mag rows, 10 gnss rows, 100 truth rows
CONFIG_TEXT = """
[run]
seed = 5
duration = 0.5

[sensor.mag]
kind = fixed
calibrated = true
sigma_y = 0.2
rate = 100.0
reference = 1 0 -1

[sensor.gnss]
kind = gnss
sigma_y = 0.1
rate = 20.0
"""

FILES = ("gyro.csv", "dir_mag.csv", "dir_gnss.csv", "truth.csv")
KINDS = ("drop", "duplicate", "swap", "nan", "huge", "zero", "truncate", "header_only")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated_logs")
    ini = root / "run.ini"
    ini.write_text(CONFIG_TEXT)
    assert main(["simulate", "--config", str(ini), "--out", str(root / "logs")]) == 0
    return ini, root / "logs"


def mutate(lines: list[str], kind: str, row: int, col: int) -> list[str]:
    """Apply one mutation to the lines of a CSV file; row 0 is the header."""
    i = 1 + row % max(len(lines) - 1, 1)
    if kind == "header_only" or len(lines) < 2:
        return lines[:1]
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = i + 1 if i + 1 < len(lines) else i - 1
        lines[i], lines[j] = lines[j], lines[i]
    elif kind in ("nan", "huge", "zero"):
        fields = lines[i].split(",")
        if kind != "zero":
            fields[col % len(fields)] = "nan" if kind == "nan" else "1e200"
        else:
            fields = ["0"] * len(fields)
        lines[i] = ",".join(fields)
    elif kind == "truncate":
        lines[i] = lines[i][:col % max(len(lines[i]), 1)]
    return lines


mutation = st.tuples(st.sampled_from(FILES), st.sampled_from(KINDS),
                     st.integers(0, 200), st.integers(0, 200))


# A numpy overflow or invalid-value warning means a bad value got through the
# readers; as an error it makes `run` exit 1 and fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(mutation, min_size=1, max_size=3))
def test_run_on_mutated_log_exits_0_or_2(simulated, mutations):
    ini, logs = simulated
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "logs"
        shutil.copytree(logs, work)
        for name, kind, row, col in mutations:
            path = work / name
            lines = mutate(path.read_text().splitlines(), kind, row, col)
            path.write_text("\n".join(lines) + "\n")
        code = main(["run", "--config", str(ini), "--logs", str(work),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 2)
