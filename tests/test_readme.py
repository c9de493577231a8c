"""README's code runs as written, so an edit to the program or to the
README that breaks one of its examples fails a test."""

import json
import re
from pathlib import Path

from fedicl import cli, core

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block_after(text: str, lang: str) -> str:
    """The first ``lang`` code block after the first ``text``."""
    start = README.index(text)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_quick_start_runs(capsys):
    exec(compile(block_after("## Quick start", "python"), "README", "exec"),
         {})
    assert capsys.readouterr().out


def test_example_config_simulates_and_matches_the_theory(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(block_after("Example config", "json"))
    for mode in ("theory", "simulate"):
        code = cli.main([mode, "--config", str(path),
                         "--output", str(tmp_path / mode)])
        assert code == cli.EXIT_PASS
    report = json.loads((tmp_path / "theory/theory_report.json").read_text())
    assert report["pass"] and len(report["w_limit"]) == 2
    assert json.loads((tmp_path / "simulate/metrics.json").read_text())[
        "theory_ok"]


def test_the_trace_line_layout_is_what_save_traces_writes(tmp_path):
    start = README.index('{"round": 1, "per_client_answers"')
    line = README[start:README.index("\n", start) + 1]
    trace = core.RoundTrace.from_json(json.loads(line))
    core.save_traces([trace], tmp_path / "traces.jsonl")
    assert (tmp_path / "traces.jsonl").read_text() == line
