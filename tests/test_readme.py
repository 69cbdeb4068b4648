"""The README's Library example runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comment_lines():
    text = README.read_text()
    library = text[text.index("\n## Library\n") :]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    want = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert want and out.getvalue().splitlines() == want
