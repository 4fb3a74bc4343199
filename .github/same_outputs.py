"""Exit 1 unless two output directories hold the same artifacts.

    python3 .github/same_outputs.py DIR1 DIR2

Every file is compared byte for byte, except that ``manifest.json`` is
compared without each stage's ``duration_s``.
"""

import json
import sys
from pathlib import Path


def artifacts(out):
    files = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for stage in manifest["stages"].values():
                del stage["duration_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.relative_to(out).as_posix()] = data
    return files


first, second = (artifacts(out) for out in sys.argv[1:3])
differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
print(f"{len(first)} artifacts; differ: {differ or 'none'}")
sys.exit(bool(differ) or not first)
