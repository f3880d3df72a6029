"""``python -m repro.obs.report``: bad input is one line, not a traceback."""

import json

import pytest

from repro.obs.report import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scenario", "nope"], "unknown scenario 'nope'"),
        (["--preset", "huge"], "unknown preset 'huge'"),
        (["--lateness", "-1"], "lateness bound cannot be negative"),
        (["--trace-every", "-2"], "trace_every cannot be negative"),
        (["--shards", "0"], "shards must be an int >= 1, got 0"),
    ],
)
def test_bad_input_exits_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"repro.obs.report: error: {message}" in captured.err
    assert "Traceback" not in captured.err


def _released(argv, capsys) -> int:
    assert main([*argv, "--preset", "small", "--format", "json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    (released,) = [
        m["value"]
        for m in metrics
        if m["name"] == "stream_observations_released_total"
    ]
    return released


def test_sharded_json_report_releases_what_the_single_engine_does(capsys):
    single = _released([], capsys)
    assert single > 0
    assert _released(["--shards", "4"], capsys) == single
