"""Regenerate ``data/reference_signals.npy.xz``.

The file holds the 11 observer signals of the boundary-fitted reference
(Lagrange p=6, n_e=6, dt=1e-4, T=1), sampled at N_S = 10,000 equidistant
times: the signals every ``obs_error`` is measured against.  It is
committed so that runs never pay the ~40 s reference solve and so that
every commit is compared with the same signals.  Run from the root of a
checkout::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import io
import lzma
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from wavebench import N_S, REFERENCE_FILE  # noqa: E402
from wavecell.harness import reference_run, sample_observers  # noqa: E402


def main():
    signals = sample_observers(reference_run(), N_S, T=1.0)
    buf = io.BytesIO()
    np.save(buf, signals)
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    with lzma.open(REFERENCE_FILE, "wb", preset=9) as fh:
        fh.write(buf.getvalue())
    print(f"wrote {REFERENCE_FILE} {signals.shape}")


if __name__ == "__main__":
    main()
