"""The README's examples run as printed: the Library block and the example config."""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

from berkvol.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(lang: str, after: str) -> str:
    """The first fenced `lang` block that follows the heading `after`."""
    start = README.index(after)
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    assert match is not None, f"no {lang} block after {after!r}"
    return match.group(1)


def test_library_block_prints_what_its_comments_say():
    code = block("python", "## Library")
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    commented = [line.split("#")[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert printed == commented == ["-1/8", "-1/8 0"]


def test_example_config_passes_with_zero_gap(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(block("json", "Example:"))
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "example.report.json").read_text())
    assert report["results"]["gap"]["exact"] == "0/1"
