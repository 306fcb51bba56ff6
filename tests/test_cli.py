import json

import pytest

from leibniz.census import census
from leibniz.cli import main


def test_cli_census_reproduces_the_library_records(capsys):
    assert main(["census", "--dim", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == list(census(2).records)


def test_cli_census_rejects_a_dimension_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--dim", "4"])
    assert exc.value.code == 2
    assert "dimensions 1..3" in capsys.readouterr().err


def test_cli_census_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--dim", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
