"""The README's "Library use" code runs as written.

Its ```python blocks build on each other, so they run in order as one
script, in a fresh interpreter that imports dgtime from the checkout.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
