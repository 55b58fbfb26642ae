"""Seeded end-to-end benchmark of the S3PG pipelines.

Four workloads (``bulk``, ``cdc``, ``fig6``, ``join``) drive the public
API of :mod:`repro` from generated input files; ``run.py`` is the
command line.  See ``README.md`` in this directory for the procedure and
the reasons behind each workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout that holds this directory and ``src/repro``.
ROOT = Path(__file__).resolve().parent.parent
#: Where a run keeps its generated inputs and trace dumps (git-ignored).
WORK_ROOT = ROOT / ".perfbench"


def import_repro():
    """Import the ``repro`` package from this checkout's ``src`` directory.

    Raises:
        ImportError: when the checkout has no ``src/repro``, or when a
            ``repro`` from elsewhere shadows it; the benchmark must only
            ever measure the code next to it.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")
    return repro
