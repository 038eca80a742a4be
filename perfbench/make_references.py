"""Store the verdicts that later runs are checked against.

    python3 perfbench/make_references.py --seeds 0-31 [--workloads stl-axioms ...]

Runs pass 0 of each workload at each seed and merges its reference (see
verdicts.py) into perfbench/references.json, or into `--out`.  Run it only
at a commit whose verdicts are known to be right; the stored references
came from the commit that introduced the benchmark.  The corpus workload's
reference does not depend on the seed and is stored once, under "*".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from probe import CaseStamps  # noqa: E402
from verdicts import make_reference  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402


def dump_references(refs: dict) -> str:
    """JSON text with one line per workload and seed."""
    lines = ["{"]
    for wi, workload in enumerate(sorted(refs)):
        lines.append(f" {json.dumps(workload)}: {{")
        seeds = sorted(refs[workload], key=lambda s: (s != "*", int(s) if s != "*" else 0))
        for si, seed in enumerate(seeds):
            comma = "," if si < len(seeds) - 1 else ""
            entry = json.dumps(refs[workload][seed], sort_keys=True, separators=(",", ":"))
            lines.append(f"  {json.dumps(seed)}: {entry}{comma}")
        lines.append(" }" + ("," if wi < len(refs) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path, default=HERE / "references.json")
    args = parser.parse_args()
    refs = json.loads(args.out.read_text()) if args.out.exists() else {}
    stamps = CaseStamps()
    stamps.install()
    for name in args.workloads:
        seeds = ["*"] if name == "corpus-expand" else args.seeds
        for seed in seeds:
            result = run_pass(WORKLOADS[name], 0 if seed == "*" else seed, stamps)
            if result.error:
                raise SystemExit(f"{name} seed {seed}: {result.error}")
            refs.setdefault(name, {})[str(seed)] = make_reference(result.cases, result.sha256)
            print(f"{name} seed {seed}: {len(result.cases)} cases, {result.wall:.1f}s", flush=True)
            args.out.write_text(dump_references(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
