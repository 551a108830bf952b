"""README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs_in_order():
    # later blocks use names the earlier ones define, as a reader's session
    # would: one namespace for all of them
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
