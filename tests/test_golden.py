"""The bundled scenarios' outputs, byte for byte.  moment_samples.csv is
left out: its float bits depend on the BLAS kernel numpy runs on."""

from pathlib import Path

import pytest

from momentforge import cli

GOLDEN = Path(__file__).parent / "golden"
FILES = ("report.txt", "matrices.csv", "coverage.csv")


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_bundled_outputs_match_golden(tmp_path, capsys, name):
    code = cli.main(["all", "--scenario", name, "--out", str(tmp_path)])
    assert code == 0
    for file in FILES:
        assert (tmp_path / file).read_bytes() \
            == (GOLDEN / name / file).read_bytes(), file
