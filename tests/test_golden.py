"""The bundled scenarios' outputs, byte for byte, the sample table
included: it holds integer numerators over known denominators, so its
bytes do not depend on the float kernels numpy runs on.

A golden whose scenario is not bundled reads its INI from
tests/scenarios: `t12_dense` is a dense decimal T^12 form with two
translation generators, the shape of the exact-forms benchmark inputs."""

from pathlib import Path

import pytest

from momentforge import cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
FILES = ("report.txt", "matrices.csv", "coverage.csv", "moment_samples.csv")


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_bundled_outputs_match_golden(tmp_path, capsys, name):
    ini = HERE / "scenarios" / f"{name}.ini"
    scenario = str(ini) if ini.is_file() else name
    code = cli.main(["all", "--scenario", scenario, "--out", str(tmp_path)])
    assert code == 0
    for file in FILES:
        assert (tmp_path / file).read_bytes() \
            == (GOLDEN / name / file).read_bytes(), file
