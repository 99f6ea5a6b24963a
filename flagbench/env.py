"""Where the benchmark finds the flagcoh sources of its own checkout."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# numpy's BLAS runs single-threaded, so one process uses one core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_sources() -> None:
    """Import flagcoh from ROOT/src, never from an installed copy.

    Exits with status 1 when the checkout holds no flagcoh sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "flagcoh" / "__init__.py").is_file():
        raise SystemExit(f"flagbench: no flagcoh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flagcoh

    if Path(flagcoh.__file__).resolve().parent != SRC / "flagcoh":
        raise SystemExit(f"flagbench: imported flagcoh from {flagcoh.__file__}, not {SRC}")
