"""Benchmark of the DINAR reproduction: canonical ``repro run`` cells.

Run from the repository root::

    python3 perfbench/run.py --workload p100_dinar --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the cell once untraced and once with every layer boundary
wrapped, and reports per-layer metrics, the tracing overhead and the
span coverage (the spans go to ``.perfbench/trace-*.jsonl``).  A run
measures whole cells back to back, as many as fit ``--seconds`` at the
workload's nominal cell time (at least its ``min_cells``).

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``perfbench report``, holds the host facts, sample counts,
failure accounting and output digests.  Operations are client-rounds
(sampled minus simulated dropouts); when any output check fails, every
client-round of the run counts as failed.  ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: ``setup_s`` is the median of SETUP_REPS to SETUP_MAX_REPS set-ups
#: per run, repeated until SETUP_SECONDS have been spent on them (cells
#: add one each): a single set-up takes 5-100 ms.  They are spread
#: evenly before the cells, so they see the same host load as the run.
SETUP_REPS = 5
SETUP_MAX_REPS = 50
SETUP_SECONDS = 2.0
#: Each cell repeats its (deterministic) attack phase until this much
#: time is spent: one yeom attack on purchase100 takes ~0.12 s.
ATTACK_SECONDS = 1.0
#: Cell k of a run uses seed ``seed + k * CELL_SEED_STRIDE``: the
#: accuracy and AUC figures vary with the seed, and their median over a
#: run's cells varies less from run to run.  Cell 0 is ``repro run
#: --seed <seed>``.
CELL_SEED_STRIDE = 1_000_003
REPORT_PREFIX = "perfbench report "


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest reaped child (KiB on
    Linux, as ``getrusage`` reports them)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check_digest_cache(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same source, cell
    group and seed stored; store it when there is none."""
    path = OUT_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != digest:
            return (f"digest {digest[:12]} differs from {known[key][:12]} "
                    f"of an earlier run ({key})")
        return None
    known[key] = digest
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def _check_cells(cells) -> list[str]:
    problems = [cell.error for cell in cells if cell.error]
    for cell in cells:
        if cell.error:
            continue
        values = cell.round_s + cell.attack_s + [
            cell.loop_s, cell.client_accuracy, cell.global_auc,
            cell.local_auc]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite output in {values}")
        if not 0.0 <= cell.client_accuracy <= 1.0:
            problems.append(f"client_accuracy {cell.client_accuracy}")
        if not (0.5 <= cell.global_auc <= 1.0
                and 0.5 <= cell.local_auc <= 1.0):
            problems.append(f"auc out of [0.5, 1]: {cell.global_auc}, "
                            f"{cell.local_auc}")
    by_seed: dict[int, set[str]] = {}
    for cell in cells:
        if not cell.error:
            by_seed.setdefault(cell.seed, set()).add(cell.digest)
    for seed, digests in by_seed.items():
        if len(digests) > 1:
            problems.append(f"digests differ between cells of seed "
                            f"{seed}: {sorted(digests)}")
    return problems


def _finite(metrics: dict) -> tuple[dict, list[str]]:
    clean, problems = {}, []
    for name, value in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            value = 0.0
        clean[name] = value
    return clean, problems


def _measure(workload, seed: int, seconds: float):
    """Untraced: set-ups, then whole cells; the end-to-end metrics."""
    from perfbench import cell as cells_mod
    from perfbench import report

    setup_samples: list[float] = []
    cells = []
    n_cells = workload.cells_for(seconds)
    for k in range(n_cells):
        share: list[float] = []
        while len(share) < SETUP_MAX_REPS // n_cells and (
                len(share) < math.ceil(SETUP_REPS / n_cells)
                or sum(share) < SETUP_SECONDS / n_cells):
            share.append(cells_mod.timed_setup(workload, seed))
            gc.collect()
        setup_samples += share
        cell = cells_mod.run_cell(workload, seed + k * CELL_SEED_STRIDE,
                                  attack_seconds=ATTACK_SECONDS)
        gc.collect()  # the simulation holds reference cycles
        cells.append(cell)
        if cell.error:
            break
        setup_samples.append(cell.setup_s)
    summary = report.end_to_end(cells, setup_samples, _peak_rss_mib())
    problems = _check_cells(cells)
    if workload.parallel and not problems:
        # the serial cell the parallel one must equal bitwise
        cells.append(cells_mod.run_cell(workload, seed, serial=True))
        problems = _check_cells(cells)
    return (cells, problems, report.END_TO_END,
            {name: m["value"] for name, m in summary.items()},
            {name: m["n"] for name, m in summary.items()})


def _measure_traced(workload, seed: int, facts: dict):
    """One untraced cell, then the same cell traced; the per-layer
    metrics.  The two cells must produce the same digest."""
    from perfbench import cell as cells_mod
    from perfbench import report, trace

    base = cells_mod.run_cell(workload, seed)
    gc.collect()
    tracer = trace.Tracer()
    inst = trace.instrument_classes(tracer)
    try:
        traced = cells_mod.run_cell(
            workload, seed, tracer=tracer,
            on_setup=lambda sim: trace.instrument_simulation(inst, sim))
    finally:
        inst.remove()
    cells = [base, traced]
    problems = _check_cells(cells)
    values = dict.fromkeys(report.PER_LAYER, 0.0)
    if not problems:
        values.update(report.per_layer(tracer.spans, traced,
                                       statistics.median(base.round_s)))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(
            str(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl"),
            {"workload": workload.name, "seed": seed, "host": facts})
    return (cells, problems, report.PER_LAYER, values,
            {"spans": len(tracer.spans)})


def run_workload(args) -> int:
    from perfbench import report
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = report.host_facts()
    if args.trace:
        cells, problems, units, values, counts = _measure_traced(
            workload, args.seed, facts)
    else:
        cells, problems, units, values, counts = _measure(
            workload, args.seed, args.seconds)

    digests = {str(c.seed): c.digest for c in cells if c.digest}
    if not problems:
        # BLAS thread count changes GEMM summation order, so a digest
        # is only comparable across runs on the same host facts.
        prefix = "/".join((_source_hash(), hashlib.sha256(json.dumps(
            facts, sort_keys=True).encode()).hexdigest()[:8],
            workload.digest_group))
        problems += filter(None, (
            _check_digest_cache(f"{prefix}/{seed}", digest)
            for seed, digest in digests.items()))
    values, non_finite = _finite(values)
    problems += non_finite
    attempted = max(sum(cell.attempted for cell in cells), 1)
    correct = not problems
    failed = 0 if correct else attempted
    config = workload.config(args.seed)
    details = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": facts,
        "cell": {"dataset": workload.dataset, "defense": workload.defense,
                 "attack": workload.attack, "clients": config.num_clients,
                 "rounds": config.rounds, "workers": config.workers},
        "samples": counts,
        "client_rounds": {"attempted": attempted, "failed": failed},
        "runs": {"attempted": len(cells),
                 "failed": 0 if correct else len(cells)},
        "errors": problems,
        "digests": digests,
        "moves": [list(pair) for pair in workload.moves],
    }
    print(REPORT_PREFIX + json.dumps(details))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is per run), then
    one table of every metric with its unit and sample count."""
    from perfbench.workloads import WORKLOADS

    rows, digests, ok = [], {}, True
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        details = json.loads(lines[-2][len(REPORT_PREFIX):])
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for seed, digest in details["digests"].items():
            digests.setdefault((workload.digest_group, seed),
                               set()).add(digest)
        print(f"{name}: correct={result['correct']} client-rounds "
              f"{result['failed']}/{result['attempted']} failed, "
              f"errors={details['errors']}")
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["unit"], entry["value"],
                         details["samples"].get(metric, "")))
    width = max((len(r[1]) for r in rows), default=10)
    print(f"{'workload':<20} {'metric':<{width}} {'unit':<10} "
          f"{'value':>14} n")
    for name, metric, unit, value, n in rows:
        print(f"{name:<20} {metric:<{width}} {unit:<10} {value:>14.6g} {n}")
    for (group, seed), found in digests.items():
        if len(found) > 1:
            ok = False
            print(f"digest mismatch in {group}, seed {seed}: "
                  f"{sorted(found)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
