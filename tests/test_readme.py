"""The README's library tour runs as written, from the repository root."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_library_tour_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    monkeypatch.chdir(ROOT)  # the tour names spaces/*.json relative to the root
    exec(compile(tour, "README.md", "exec"), {"__name__": "readme_tour"})
