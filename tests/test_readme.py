"""README's library quick start runs as written against the public API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rate, final = capsys.readouterr().out.split()
    assert float(rate) < 1.0 and float(final) >= 0.0
