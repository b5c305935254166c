"""Run one tool on HEAD and on the working tree and diff the two outputs.

    python3 tools/twotree.py <sweep|fingerprint|signatures>

The base side is a ``git archive`` export of HEAD, the committed files
only, in a temporary directory, with the working tree's copy of the tool
put in its ``tools/``; the change side is the working tree.  Each side
runs ``python3 tools/<tool>.py`` from its own root with ``PYTHONPATH=src``.
Prints the ``diff -u`` of the two outputs (nothing if they are equal) and
exits 1 if they differ.  ``sweep`` takes about a minute per side.
"""

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ("sweep", "fingerprint", "signatures")


def export_head(dest):
    """Write the committed files of HEAD into the directory ``dest``."""
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def output(tree, tool):
    env = dict(os.environ, PYTHONPATH="src")
    # a tool exits 1 when a check it reports fails; the diff still shows it
    return subprocess.run([sys.executable, f"tools/{tool}.py"], cwd=tree, env=env,
                          stdout=subprocess.PIPE, text=True).stdout.splitlines(keepends=True)


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in TOOLS:
        sys.exit(f"usage: python3 tools/twotree.py <{'|'.join(TOOLS)}>")
    tool = sys.argv[1]
    with tempfile.TemporaryDirectory() as base_tree:
        export_head(base_tree)
        shutil.copy(ROOT / "tools" / f"{tool}.py", Path(base_tree) / "tools" / f"{tool}.py")
        base = output(base_tree, tool)
    change = output(ROOT, tool)
    diff = list(difflib.unified_diff(base, change, f"HEAD/{tool}", f"working-tree/{tool}"))
    sys.stdout.writelines(diff)
    print(f"{len(base)} lines on HEAD, {len(change)} in the working tree, "
          f"{sum(a == b for a, b in zip(base, change))} identical in place", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
