"""``python -m repro.native``: build, load and self-check every kernel.

Prints each kernel's status and exits non-zero unless every one reads
``"ready"``.
"""

import sys

from repro.native import status

if __name__ == "__main__":
    report = status()
    for name, verdict in report.items():
        print(f"{name}: {verdict}")
    sys.exit(0 if all(verdict == "ready" for verdict in report.values()) else 1)
