"""The README's Python quick start runs as written against the package's
top-level names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    assert capsys.readouterr().out.splitlines()[0] == "126"
