"""``python -m repro.obs.report``: bad input is one line, not a traceback;
the machine formats carry the stream counts and the text format one
residency line per stage."""

import json

import pytest

from repro.obs.report import main
from repro.obs.tracing import STAGES


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scenario", "nope"], "unknown scenario 'nope'"),
        (["--preset", "huge"], "unknown preset 'huge'"),
        (["--lateness", "-1"], "lateness bound cannot be negative"),
        (["--trace-every", "-2"], "trace_every cannot be negative"),
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


def test_json_report_counts_released_observations(capsys):
    assert main(["--preset", "small", "--format", "json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    (released,) = [
        m["value"]
        for m in metrics
        if m["name"] == "stream_observations_released_total"
    ]
    assert released > 0


def test_text_report_prints_one_residency_line_per_stage(capsys):
    assert main(["--preset", "small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (header,) = [
        at for at, line in enumerate(lines)
        if line.startswith("-- stage residency")
    ]
    rows = lines[header + 1:header + 1 + len(STAGES)]
    assert [row.split()[0] for row in rows] == [s.value for s in STAGES]
    assert lines[header + 1 + len(STAGES)].startswith("--")
    assert all(" n=" in row and " mean=" in row for row in rows)
