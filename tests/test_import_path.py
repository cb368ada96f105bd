"""scipy stays off the import path: no command loads it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spinsphere

SRC = str(Path(spinsphere.__file__).resolve().parents[1])


def loaded_after(tmp_path, argv):
    """Fresh interpreter: [scipy loaded before main, exit code, scipy and scipy.optimize after]."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); "
        "import spinsphere.cli as cli; cli.build_parser(); "
        f"before, argv = 'scipy' in sys.modules, {argv!r}; "
        "code = cli.main(argv) if argv else 0; "
        "print(before, code, 'scipy' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["oracle", "--output", "o.csv"],
        ["distances", "--output", "d.csv"],
        ["torsion-check", "--n-points", "5", "--output", "t.json"],
        ["simulate", "run.json", "--output", "c.csv"],
        ["chsh", "--kind", "su2_cosine", "--output", "b.json"],
        ["chsh", "--kind", "so3_saw", "--output", "b.json"],
        ["chsh", "--kind", "monte_carlo", "--output", "b.json"],
    ],
)
def test_commands_never_import_scipy(tmp_path, argv):
    (tmp_path / "run.json").write_text(json.dumps({"n_trials": 2000, "seed": 5}))
    assert loaded_after(tmp_path, argv) == ["False", "0", "False", "False"]



def test_no_source_file_mentions_scipy():
    package = Path(spinsphere.__file__).resolve().parent
    assert [p.name for p in package.glob("*.py") if "scipy" in p.read_text()] == []
