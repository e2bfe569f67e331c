"""Every environment knob the package reads is documented in README.md."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def test_every_env_knob_is_documented_in_readme():
    knobs = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        knobs.update(KNOB.findall(path.read_text(encoding="utf-8")))
    assert "REPRO_KERNEL" in knobs  # the scan itself found the package
    readme = set(KNOB.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(knobs - readme) == []
