#!/usr/bin/env python3
"""Check the include rules that keep src/ layered, with no test-only module.

Files under src/control/ include only common/, obs/ and control/ headers;
files under src/core/ never include control/ headers; and every header
under src/ is included by some file under src/, apps/, bench/, tools/ or
examples/ other than its own .cpp, so no library module lives for its tests
alone.  Usage: check_layers.py [SRC_DIR]; prints every offence and exits 1.
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"(([^"/]+)/[^"]+)"', re.M)
RULES = {"control": lambda top: top in {"common", "obs", "control"},
         "core": lambda top: top != "control"}
USERS = ("src", "apps", "bench", "tools", "examples")


def unused_headers(root):
    includers = {}
    for top in USERS:
        for path in (root.parent / top).rglob("*.[ch]pp"):
            for header, _ in INCLUDE.findall(path.read_text()):
                includers.setdefault(header, set()).add(path)
    bad = []
    for path in sorted(root.rglob("*.hpp")):
        header = path.relative_to(root).as_posix()
        if not includers.get(header, set()) - {path.with_suffix(".cpp")}:
            bad.append(f"{header} is included only by tests or its own .cpp")
    return bad


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parents[1] / "src").resolve()
    bad = []
    for layer, allowed in RULES.items():
        files = sorted((root / layer).glob("*.[ch]pp"))
        if not files:
            bad.append(f"no sources under {root / layer}")
        bad += [f"{path.relative_to(root)} includes {header}" for path in files
                for header, top in INCLUDE.findall(path.read_text()) if not allowed(top)]
    bad += unused_headers(root)
    for line in bad:
        print(f"check_layers: {line}", file=sys.stderr)
    if bad:
        return 1
    print("check_layers: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
