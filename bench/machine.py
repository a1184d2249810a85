"""Record the machine and versions the benchmark figures were measured on.

    python3 bench/machine.py > bench/machine.json

Run from the root of a git checkout; Linux only (reads /proc and /sys).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def main() -> None:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=True
    ).stdout.strip()
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_of_cpu0": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "git_commit": commit,
    }
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
