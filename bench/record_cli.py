"""Re-record the exit code and stdout sha256 of every cli-cold command.

    python3 bench/record_cli.py

The cli-cold workload fails every command whose report bytes or exit code
differ from ``bench/cli_expected.json``.  Re-record only in a change that
means to alter report bytes, and say so in that change.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    for key, row in workloads.record_cli_expected(ROOT).items():
        print(row["exit"], key)
