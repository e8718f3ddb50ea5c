"""The bundled scenarios' outputs, byte for byte, the sample table
included: it holds integer numerators over known denominators, so its
bytes do not depend on the float kernels numpy runs on."""

from pathlib import Path

import pytest

from momentforge import cli

GOLDEN = Path(__file__).parent / "golden"
FILES = ("report.txt", "matrices.csv", "coverage.csv", "moment_samples.csv")


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_bundled_outputs_match_golden(tmp_path, capsys, name):
    code = cli.main(["all", "--scenario", name, "--out", str(tmp_path)])
    assert code == 0
    for file in FILES:
        assert (tmp_path / file).read_bytes() \
            == (GOLDEN / name / file).read_bytes(), file
