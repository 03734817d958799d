"""Locate and pin the measured program: the checkout's own ``src/latsimplex``
on the pure-Python backend.

Import this module before anything imports ``latsimplex``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "latsimplex"


class SetupError(Exception):
    """The checkout cannot be measured as asked."""


def pin():
    """Put the checkout's sources first on the path and force pure kernels."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no latsimplex sources under {SRC}")
    os.environ["LATSIMPLEX_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    import latsimplex

    if Path(latsimplex.__file__).resolve().parent != PACKAGE.resolve():
        raise SetupError(f"imported latsimplex from {latsimplex.__file__}, "
                         f"not from {PACKAGE}")
    if latsimplex.active_backend() != "python":
        raise SetupError("kernel backend is "
                         f"{latsimplex.active_backend()!r}, not 'python'")
    return latsimplex


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe(latsimplex) -> dict:
    return {
        "backend": latsimplex.active_backend(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }
