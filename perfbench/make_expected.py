"""Make the stored copies the correctness checks compare against.

    python3 perfbench/make_expected.py

Runs each census in workloads.STORED through the CLI of the checkout's
``src/`` and writes its CSV to ``perfbench/expected/``.  The two-worker
census is stored from a one-worker run.  Make them anew only when a
change is meant to alter a census; commit them with that change.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from clusterbounds.cli import main  # noqa: E402

from workloads import EXPECTED, STORED  # noqa: E402

os.makedirs(EXPECTED, exist_ok=True)
for name, argv in STORED.items():
    path = os.path.join(EXPECTED, name)
    if main(argv + ["-o", path]) != 0:
        sys.exit(f"census for {name} failed")
    print(f"wrote {path}")
