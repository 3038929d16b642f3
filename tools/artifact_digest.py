#!/usr/bin/env python3
"""Run CLI subcommands for one config and print the sha256 of every
artifact they leave in the output directory.

    python3 tools/artifact_digest.py run.json ingest train evaluate
    python3 tools/artifact_digest.py run.json featurize drift --out /tmp/feat1

Each subcommand runs as `python -m svassess.cli <subcommand> --config
<config>` against the `src/` of the checkout this script lives in, so
running the script from two checkouts with the same config and output
path, and diffing the two listings, shows whether their artifacts are
byte-identical.  Output lines are `<sha256>  <path relative to out>`,
sorted by path.  The output directory must be absent or empty, so stale
files never enter the listing.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(config: Path, subcommands: list[str], out: Path | None) -> Path:
    if out is None:
        out = Path(json.loads(config.read_text(encoding="utf-8"))["out"])
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: output directory {out} is not empty; remove it first")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for sub in subcommands:
        cmd = [sys.executable, "-m", "svassess.cli", sub]
        cmd += ["--config", str(config), "--out", str(out)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: {sub} exited {done.returncode}")
    return out


def digests(out: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
        for p in sorted(out.rglob("*"))
        if p.is_file()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path, help="JSON config passed to every subcommand")
    parser.add_argument("subcommands", nargs="+", help="CLI subcommands, run in order")
    parser.add_argument("--out", type=Path, help="output directory (default: the config's out)")
    args = parser.parse_args(argv)
    out = run(args.config, args.subcommands, args.out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
