"""relcheck's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ftl-axioms --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports relcheck from `src/`.
It drives relcheck through public functions only, in this process and one
thread, as a closed loop: the next case starts when the previous one ends.

`--trace 0` measures the end-to-end metrics.  Passes of the workload run
back to back until `--seconds` have passed.  Pass 0 uses the seed itself and
is checked against the stored reference for that seed; every pass gets the
checks that need no reference (see verdicts.py).  After each pass, one fresh
interpreter imports relcheck (with its CLI) and loads the definitions and
both axiom manifests; `setup_s` is the median of those set-up times, so they
are spread over the whole run as the case times are.

`--trace 1` runs pass 0 untraced, then pass 0 again under the tracer, then
the per-layer microbenchmarks, and prints the per-layer metrics.  Traced
wall over untraced wall is the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record of the run, with the run stamp and
per-item detail, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"
SETUP_MIN = 15  # set-up samples per run, at least
TAIL_CANDIDATES = (99, 95, 90, 75, 50)
DEPTHS = range(5)  # ScalarContext's default depth cap is 4

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import relcheck.cli
from relcheck.corpus import SYSTEM_SIMPLEREL, SYSTEM_SIMPLERELFTL, load_axioms, load_definitions
table = load_definitions()
load_axioms(SYSTEM_SIMPLEREL, table=table)
load_axioms(SYSTEM_SIMPLERELFTL, table=table)
print(time.perf_counter() - t0)
"""


def setup_sample() -> float:
    """Set-up seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> int:
    """The highest candidate percentile with at least 10 of n cases beyond it."""
    for q in TAIL_CANDIDATES:
        if n * (100 - q) >= 1000:
            return q
    return 50


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def load_reference(workload: str, seed: int) -> dict | None:
    refs = json.loads(REFERENCES.read_text())
    per_seed = refs.get(workload, {})
    return per_seed.get(str(seed), per_seed.get("*"))


def depth_detail(cases: list[tuple]) -> dict:
    """Cases per tower depth reached, with the median case time of each depth."""
    out = {}
    for depth in DEPTHS:
        times = [c[4] for c in cases if c[5] == depth]
        out[f"L{depth}"] = {
            "cases": len(times),
            "case_ms.p50": round(statistics.median(times) * 1e3, 4) if times else None,
        }
    return out


def item_detail(cases: list[tuple]) -> dict:
    """ms per case for every item, and the sub_seed of its slowest case."""
    items: dict[str, list[tuple]] = {}
    for c in cases:
        items.setdefault(f"{c[0]}/{c[1]}", []).append(c)
    out = {}
    for key, rows in items.items():
        slow = max(rows, key=lambda c: c[4])
        out[key] = {
            "cases": len(rows),
            "ms_per_case": round(sum(c[4] for c in rows) / len(rows) * 1e3, 4),
            "slowest": {"case": slow[2], "ms": round(slow[4] * 1e3, 4), "sub_seed": slow[6],
                        "depth": slow[5], "status": slow[3]},
        }
    return out


class Run:
    """Checks and counts for every pass of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload, seed)
        self.passes = []
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.listed: list[str] = []

    def add(self, result, against_reference: bool) -> None:
        from verdicts import check

        self.passes.append(result)
        got = check(result.cases, result.sha256, self.reference if against_reference else None)
        self.attempted += len(result.cases)
        self.failed += len(got.failed)
        self.problems += got.problems
        self.listed += got.listed
        if result.error:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"pass seed {result.seed} raised {result.error}")

    def stamp(self, **extra) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "pass_seeds": [p.seed for p in self.passes],
            "reference": "stored" if self.reference else "none for this seed: checks without reference only",
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            **extra,
        }


def stamp_overhead_s() -> float:
    """Seconds that CaseStamps adds to one case: a `ConfigGen` and a `record`
    call, timed with and without it."""
    from probe import CaseStamps
    from relcheck.verifier.generators import ConfigGen
    from relcheck.verifier.report import TRUE, ItemResult

    def per_record() -> float:
        item = ItemResult("x")
        t0 = time.perf_counter()
        for i in range(5000):
            ConfigGen(i)
            item.record(i, TRUE)
        return (time.perf_counter() - t0) / 5000

    bare = min(per_record() for _ in range(3))
    stamps = CaseStamps()
    stamps.install()
    try:
        stamped = min(per_record() for _ in range(3))
    finally:
        stamps.uninstall()
    return max(stamped - bare, 0.0)


def run_untraced(args, spec) -> tuple[Run, dict, dict]:
    from probe import CaseStamps
    from relcheck.verifier.report import FALSE, TRUE
    from workloads import pass_seed, run_pass

    setup_sample()  # untimed: it writes the bytecode cache
    setup = []
    overhead = stamp_overhead_s()
    run = Run(spec.name, args.seed)
    stamps = CaseStamps()
    stamps.install()
    t0 = time.perf_counter()
    try:
        k = 0
        while k == 0 or time.perf_counter() - t0 < args.seconds:
            size = spec.cases if k == 0 else spec.topup
            result = run_pass(spec, pass_seed(args.seed, k), stamps, cases=size)
            run.add(result, against_reference=k == 0)
            if result.error:
                break
            setup.append(setup_sample())
            k += 1
    finally:
        stamps.uninstall()
    while len(setup) < SETUP_MIN:
        setup.append(setup_sample())
    cases = [c for p in run.passes for c in p.cases]
    times = [c[4] for c in cases] or [0.0]  # no case ended: the run has failed anyway
    wall = sum(p.wall for p in run.passes)
    first = run.passes[0].cases
    decided = sum(1 for c in first if c[3] in (TRUE, FALSE))
    q = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (len(cases) / wall, "1/s"),
        "case_ms.tail": (percentile(times, q) * 1e3, "ms"),
        "decided_rate": (decided / max(len(first), 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "fail_rate": run.failed / run.attempted,
        "case_ms.p50": statistics.median(times) * 1e3,
        "setup_s.samples": setup,
        "case_ms.tail.percentile": q,
        "cases": len(times),
        "passes": [{"seed": p.seed, "cases": len(p.cases), "wall_s": p.wall} for p in run.passes],
        "measured_s": wall,
        "depth": depth_detail(first),
        "stamp_overhead_share": overhead * len(cases) / wall,
    }
    stamp = run.stamp(
        workload_size={"pass0_cases_per_item": spec.cases, "later_cases_per_item": spec.topup,
                       "pass0_cases": len(first)},
        tracing_overhead=None,
        tracing_overhead_note="measured by --trace 1 runs",
    )
    return run, metrics, {"stamp": stamp, "detail": detail}


def run_traced(args, spec) -> tuple[Run, dict, dict]:
    import micro
    from probe import CaseStamps, Tracer
    from relcheck import corpus, fol, minkowski, model, scalar
    from relcheck.verifier import definitional, evaluate, generators, suites
    from workloads import run_pass

    run = Run(spec.name, args.seed)
    stamps = CaseStamps()
    stamps.install()
    try:
        plain = run_pass(spec, args.seed, stamps)
        run.add(plain, against_reference=True)
        tracer = Tracer()
        tracer.install(
            [("scalar", scalar), ("minkowski", minkowski), ("model", model),
             ("definitional", definitional), ("verifier", suites), ("verifier", generators),
             ("verifier", evaluate), ("fol", fol), ("corpus", corpus)],
            skip={"run_axiom_suite", "run_lemma_suite", "run_equivalence_suite",
                  "check_definitional_equivalence", "invariance_suite"},
        )
        stamps.tracer = tracer
        try:
            with tracer.span("workload:" + spec.name):
                traced = run_pass(spec, args.seed, stamps, tracer)
        finally:
            stamps.tracer = None
            tracer.uninstall()
        run.add(traced, against_reference=True)
    finally:
        stamps.uninstall()
    if [c[:4] for c in plain.cases] != [c[:4] for c in traced.cases] or plain.sha256 != traced.sha256:
        run.failed += 1
        run.problems.append("the traced pass gave other verdicts or report bytes than the untraced one")

    wall = traced.wall
    depths = depth_detail(plain.cases)
    calls = tracer.calls
    metrics = {f"scalar.depth.L{d}": (depths[f"L{d}"]["cases"], "count") for d in DEPTHS}
    metrics.update({
        "scalar.adjoin.count": (tracer.adjoined, "count"),
        "scalar.capacity.count": (tracer.capacity, "count"),
        "scalar.ops.count": (sum(n for k, n in calls.items() if k.startswith("scalar.Scalar.")), "count"),
        "minkowski.self_share": (tracer.self_time["minkowski"] / wall, "ratio"),
        "model.self_share": (tracer.self_time["model"] / wall, "ratio"),
        "model.bw_ftl.share": (tracer.inclusive["model.bw_ftl"] / wall, "ratio"),
        "definitional.self_share": (tracer.self_time["definitional"] / wall, "ratio"),
        "verifier.classframe.share": (tracer.inclusive["verifier.ClassFrame"] / wall, "ratio"),
        "verifier.driver_share": (1 - tracer.work / wall, "ratio"),
    })
    for name, value in micro.all_metrics().items():
        unit = "count" if name.endswith("nodes") else "ms" if "_ms" in name else "us"
        metrics[name] = (value, unit)

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{spec.name}-seed{args.seed}.spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "start", "end", "case_sub_seed"], "spans": tracer.spans}))
    detail = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": wall,
        "self_share": {k: v / wall for k, v in sorted(tracer.self_time.items())},
        "items": item_detail(plain.cases),
        "depth": depths,
        "calls": tracer.per_name(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    stamp = run.stamp(
        workload_size={"pass0_cases_per_item": spec.cases, "pass0_cases": len(plain.cases)},
        tracing_overhead=wall / plain.wall,
    )
    return run, metrics, {"stamp": stamp, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relcheck" / "__init__.py").is_file() or not REFERENCES.is_file():
        print(f"error: run from a relcheck checkout: {SRC}/relcheck or {REFERENCES.name} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    measure = run_traced if args.trace else run_untraced
    run, metrics, record = measure(args, spec)
    correct = run.failed == 0
    record.update(correct=correct, attempted=run.attempted, failed=run.failed,
                  problems=run.problems, listed=run.listed[:50],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {spec.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(run.passes)}  cases {run.attempted}  failed {run.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        # recorded, not gated: see the README
        print(f"  {'case_ms.p50':36s} {record['detail']['case_ms.p50']:14.6g} ms")
        print(f"  {'fail_rate':36s} {record['detail']['fail_rate']:14.6g} ratio")
    for line in run.problems:
        print(f"  FAILED {line}")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
