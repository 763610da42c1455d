"""The README's examples run and show what the code gives."""

import ast
import json
import re
from fractions import Fraction
from pathlib import Path

from affwalk.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading``."""
    start = README.index(heading)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def _summary(out: str) -> dict:
    line = next(line for line in out.splitlines() if line.startswith("# summary "))
    return json.loads(line[len("# summary "):])


def test_library_quick_start():
    # each bare expression's comment starts with its value, then two spaces
    source = _block("## Library quick start", "python")
    lines = source.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip().split("  ")[0]
            value = eval(code, namespace)
            assert value == eval(comment, {"Fraction": Fraction}), code
            shown.append(comment)
        else:
            exec(code, namespace)
    assert shown == [
        "{2: Fraction(1, 2)}",
        "{2}",
        "'1 0 1 0 1 0 0 0 0 0 0 0 (base 2), start=0'",
        "54",
        "True",
    ]


def _examples() -> str:
    return README[README.index("### Examples"):README.index("### Exit codes")]


def test_boundary_example(tmp_path, capsys):
    config = tmp_path / "rev.json"
    config.write_text(_block("### Config file", "json"))
    assert main(["--config", str(config), "--seed", "7", "boundary"]) == 0
    out = capsys.readouterr().out
    summary = _summary(out)
    assert summary["digits"] == "1 0 1 0 1 0 0 0 0 0 0 0 (base 2), start=0"
    assert summary["probe_agreed"] is True
    assert (summary["stabilization_index"], summary["steps_total"]) == (54, 86)
    assert summary["value"] == "146051093/1"
    text = _examples()
    for shown in (
        '"stabilization_index":54,"steps_total":86,"value":"146051093/1"',
        "boundary,2,54,7,stabilization_index,54.0",
        "boundary,2,54,7,probe_agreed,1.0",
    ):
        assert shown in text
        assert shown in out


def test_gauge_example(capsys):
    assert main(["gauge", "--k", "0.6931471805599453"]) == 0
    assert _summary(capsys.readouterr().out) == {"bound": 72.0, "count": 26}
    assert '# summary {"bound":72.0,"count":26}' in _examples()


def test_entropy_example(capsys):
    config = ROOT / "bench" / "configs" / "mu_sym.json"
    assert main(["--config", str(config), "entropy"]) == 0
    summary = _summary(capsys.readouterr().out)
    assert repr(summary["increment_to_rate_ratio"]).startswith("0.659")
    assert summary["trending_to_zero"] is True
    assert '"increment_to_rate_ratio":0.659..., "trending_to_zero":true' in _examples()
