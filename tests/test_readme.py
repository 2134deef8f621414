"""README's Python examples run as written, so its API claims cannot drift
from the code unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # the Quick start, then the scalable builders, which continue with its
    # names in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
    for p in (namespace["p1"], namespace["p2"], namespace["p3"]):
        assert p.kind == "factor_low_rank"
