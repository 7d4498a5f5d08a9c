"""Committed records rows rebuilt from ``tests/oracles.py`` alone, through
``tests/reference_rows.py`` (CI runs it on every reference row), and
written again by the package: three sources that share no code agree."""

from pathlib import Path

import pytest

import reference_rows
from levybound.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "reference"


@pytest.mark.slow
@pytest.mark.parametrize("profile, settings, count", [
    # seed 0 at the two ends of the alpha range, in both noise groups
    ("phase_transition", ["seeds=0", "alphas=1.6,2"], 4),
    # every row: batch draws, sigma2 > 0, 10 classes, and a trim (0.15 of
    # 15 evals) at which ceil and round differ
    ("minibatch_smoke", [], 8),
], ids=["phase_transition", "minibatch_smoke"])
def test_committed_rows_from_the_oracles_and_the_package(tmp_path, profile, settings, count):
    config, records = REFERENCE / f"{profile}.cfg", REFERENCE / f"{profile}_records.csv"
    out = tmp_path / "records.csv"
    argv = ["grid", "--config", str(config), "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 0
    header, *lines = out.read_text().splitlines()
    committed = records.read_text().splitlines()
    assert header == committed[0] and len(lines) == count
    assert set(lines) <= set(committed[1:])

    cells = {line.rsplit(",", 4)[0] for line in lines}  # alpha, sigma1, d, width, n, seed
    errors, checked = reference_rows.mismatches(
        config, records, keep=lambda row: ",".join(list(row.values())[:6]) in cells)
    assert (errors, checked) == ([], count)
