#!/usr/bin/env python3
"""Compare a fresh bench record against its checked-in baseline.

Usage: check_regression.py <current.json> [baseline.json] [--threshold=R]

Both files are JSONL; the LAST record of a known schema wins (runs
append). The schema of the current file picks the comparison mode, and
the baseline must carry the same schema:

epto.bench.core/1 (micro_core)
    Fails (exit 1) when any BM_OrderingRound variant's ns_per_op
    regressed by more than the threshold (default 0.25) relative to the
    baseline. Other benchmarks are reported but do not gate: they are
    either too fast (noise dominates on shared CI runners) or covered
    indirectly by the fig-sweep wall clock. Default baseline:
    bench/perf/BENCH_core.json.

epto.bench.figs/1 (figure / ablation harnesses)
    Compares per-condition `deliveries` and `events` against the
    baseline with the threshold as relative tolerance (default 0.10,
    both directions — the sims are seeded, so a silent jump is as
    suspicious as a drop). A condition present in the baseline but
    missing from the current run fails; sim_ticks/rounds/wall clock are
    reported upstream but not gated here. No default baseline — pass
    the matching bench/perf/BENCH_<name>.json explicitly.

Baselines live in bench/perf/. Refresh one (rerun the binary with
--bench-json on a quiet machine, commit the result) whenever an
intentional change moves the numbers; see EXPERIMENTS.md,
"Performance methodology".
"""
import json
import sys
from pathlib import Path

GATED_PREFIX = "BM_OrderingRound"
SCHEMAS = ("epto.bench.core/1", "epto.bench.figs/1")
DEFAULT_CORE_BASELINE = Path(__file__).resolve().parent / "BENCH_core.json"


def last_record(path, schemas=SCHEMAS):
    record = None
    try:
        fh = open(path, encoding="utf-8")
    except OSError as error:
        raise SystemExit(
            f"check_regression: cannot read {path}: {error.strerror or error}.\n"
            "Baselines live in bench/perf/BENCH_<name>.json; regenerate one by "
            "rerunning the bench binary with --bench-json on a quiet machine "
            "(EXPERIMENTS.md, 'Performance methodology').")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(
                    f"check_regression: {path}:{lineno}: not valid JSON "
                    f"({error.msg} at column {error.colno}). The file must be "
                    "JSONL as written by --bench-json; a truncated or "
                    "hand-edited record should be regenerated, not repaired.")
            if not isinstance(parsed, dict):
                raise SystemExit(
                    f"check_regression: {path}:{lineno}: expected a JSON object "
                    f"per line, got {type(parsed).__name__}")
            if parsed.get("schema") in schemas:
                record = parsed
    if record is None:
        raise SystemExit(
            f"check_regression: {path}: no record with schema in {schemas}. "
            "Either the wrong file was passed or the bench run wrote nothing — "
            "rerun the binary with --bench-json and pass its output here.")
    return record


def check_core(current, baseline, threshold):
    current = {b["name"]: b for b in current["benchmarks"]}
    baseline = {b["name"]: b for b in baseline["benchmarks"]}
    failed = False
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"MISSING  {name}: in baseline but not in current run")
            failed = failed or name.startswith(GATED_PREFIX)
            continue
        base_ns, cur_ns = base["ns_per_op"], cur["ns_per_op"]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        gated = name.startswith(GATED_PREFIX)
        verdict = "ok"
        if gated and ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            failed = True
        print(f"{verdict:10s} {name}: {base_ns:.1f} -> {cur_ns:.1f} ns/op "
              f"({(ratio - 1.0) * 100.0:+.1f}%{', gated' if gated else ''})")
    if failed:
        print(f"\nFAIL: gated benchmark regressed more than {threshold:.0%} "
              f"vs the checked-in baseline")
        return 1
    print("\nPASS: no gated regression")
    return 0


def check_figs(current, baseline, threshold):
    current_conditions = {c["label"]: c for c in current["conditions"]}
    failed = False
    for base in baseline["conditions"]:
        label = base["label"]
        cur = current_conditions.get(label)
        if cur is None:
            print(f"MISSING    {label}: in baseline but not in current run")
            failed = True
            continue
        for field in ("events", "deliveries"):
            base_v, cur_v = base.get(field, 0), cur.get(field, 0)
            if base_v == 0:
                drifted = cur_v != 0
            else:
                drifted = abs(cur_v - base_v) > threshold * base_v
            verdict = "DRIFT" if drifted else "ok"
            failed = failed or drifted
            print(f"{verdict:10s} {label}.{field}: {base_v} -> {cur_v}")
    if failed:
        print(f"\nFAIL: condition counts drifted more than {threshold:.0%} "
              f"from the checked-in baseline (seeded runs should be stable)")
        return 1
    print("\nPASS: all conditions within tolerance")
    return 0


def main(argv):
    threshold = None
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            positional.append(arg)
    if not positional:
        raise SystemExit(__doc__)
    current = last_record(positional[0])
    schema = current["schema"]
    if len(positional) > 1:
        baseline_path = positional[1]
    elif schema == "epto.bench.core/1":
        baseline_path = DEFAULT_CORE_BASELINE
    else:
        raise SystemExit(
            f"{positional[0]}: schema {schema} has no default baseline — "
            "pass the matching bench/perf/BENCH_<name>.json")
    baseline = last_record(baseline_path, schemas=(schema,))

    if schema == "epto.bench.core/1":
        return check_core(current, baseline, 0.25 if threshold is None else threshold)
    return check_figs(current, baseline, 0.10 if threshold is None else threshold)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
