import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_census_stops_quietly_when_the_reader_closes_the_pipe():
    # `leibniz census --dim 3 | head -1`: the 806 records (356,680 bytes)
    # overflow the pipe, so the writes after the first line fail
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "leibniz.cli", "census", "--dim", "3"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
    assert first == census(3).records[0]
