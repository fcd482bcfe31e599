"""Set-up child of the benchmark: import, build both registries, warm up.

    python3 bench/ready.py <check id>

Prints ``ready`` once one draw of the check has passed; the parent times the
interval from starting this interpreter to that line.  The draw is the same
in every run (seed 0, sample 0): the time of one draw of an integrating check
depends on its parameters, and a seed-dependent warm-up would make set-up
time depend on the seed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellverify import bridge, catalog, conjectures, contour, kernel, lemmas, series, special  # noqa: E402,F401
from ellverify.report import RunConfig, all_check_ids, run_suite  # noqa: E402

all_check_ids()
report = run_suite(RunConfig([sys.argv[1]], samples_per_identity=1, seed=0))
if not report.all_passed:
    sys.exit(f"warm-up draw of {sys.argv[1]} did not pass")
print("ready", flush=True)
