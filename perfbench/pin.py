"""Recompute reference.json: the pinned values that the analysis checks
compare against and that have no closed form.

    python3 perfbench/pin.py

It runs one analysis pass on the unmoved inputs (no rotation, no shift). Run
it only when a change to spherecsf is meant to change these values, and say
so in the change.
"""

import json

from run import HERE, import_program
from spans import Tracer
from workloads import Placement, analysis_run, analysis_setup


def main() -> None:
    prog = import_program()
    out = analysis_run(prog, analysis_setup(prog, Placement(None), HERE), Tracer())
    refs = {"c14_hausdorff": out["c14_hausdorff"],
            "sweep": [[list(pair) for pair in row] for row in out["sweep"]]}
    (HERE / "reference.json").write_text(json.dumps(refs) + "\n")


if __name__ == "__main__":
    main()
