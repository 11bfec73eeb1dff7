"""Program set-up as a user pays it: start the interpreter, import delsub
and build what the workload's entry point builds before its first
operation.  ``run.py`` times this script in fresh processes for setup_s.

Usage, from the repository root:
    python3 perfbench/setup_probe.py <workload>
"""

import sys

sys.path.insert(0, "src")

if sys.argv[1] == "decode-q4n40":
    from delsub.reconstruct import Codebook

    Codebook.parity(40, 4)
else:
    from delsub.cli import build_parser

    build_parser()
