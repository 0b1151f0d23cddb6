import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _section_code(title: str) -> str:
    """The first ```python block under the README heading `title`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n## {title}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_runs(capsys):
    # the example imports, builds and reads real names: run it as written
    exec(compile(_section_code("Library use"), README, "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    scheme, saved = lines[0].split()
    assert scheme == "dcr" and float(saved) > 0
