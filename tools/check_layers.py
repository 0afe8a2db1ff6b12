#!/usr/bin/env python3
"""Check the include rules that keep the controller layer acyclic.

Files under src/control/ include only common/, obs/ and control/ headers;
files under src/core/ never include control/ headers.  Usage:
check_layers.py [SRC_DIR]; prints every offending include and exits 1.
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"(([^"/]+)/[^"]+)"', re.M)
RULES = {"control": lambda top: top in {"common", "obs", "control"},
         "core": lambda top: top != "control"}


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parents[1] / "src")
    bad = []
    for layer, allowed in RULES.items():
        files = sorted((root / layer).glob("*.[ch]pp"))
        if not files:
            bad.append(f"no sources under {root / layer}")
        bad += [f"{path.relative_to(root)} includes {header}" for path in files
                for header, top in INCLUDE.findall(path.read_text()) if not allowed(top)]
    for line in bad:
        print(f"check_layers: {line}", file=sys.stderr)
    if bad:
        return 1
    print("check_layers: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
