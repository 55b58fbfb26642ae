"""Put the checkout's root on ``sys.path`` and import ``repro`` from it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import import_repro  # noqa: E402

import_repro()
