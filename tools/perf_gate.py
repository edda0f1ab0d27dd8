#!/usr/bin/env python3
"""Unified two-tier perf gate: one script, one baseline format, both tiers.

Tier 1 — integration wall clock ("the whole app got slow"):
    ctest -L integration --output-junit junit.xml
    python3 tools/perf_gate.py junit.xml bench/baselines/ci_smoke.json

Tier 2 — hot primitives ("one kernel regressed 10x but the suite passes"):
    ./bench_micro --benchmark_format=json --benchmark_out=bench_micro.json
    python3 tools/perf_gate.py bench_micro.json bench/baselines/bench_micro.json

The results format is detected from the file name: *.xml parses as a JUnit
report (seconds per testcase), anything else as google-benchmark JSON
(cpu_time per iteration run, normalized to ns).

Baseline format (shared by both tiers):

    {
      "description": "...",
      "unit": "seconds" | "ns",
      "max_factor": 2.0,          // global tolerance
      "floor": 1.0,               // absolute floor in `unit`
      "entries": {
        "name": 0.8,                                  // plain baseline
        "other": {"baseline": 3.0, "max_factor": 4.0} // per-entry tolerance
      }
    }

An entry fails the gate when its measurement exceeds
    max(entry_max_factor * baseline, floor)
— the factor catches real regressions, the floor keeps tiny measurements
from flapping on noisy runners, and a per-entry `max_factor` documents the
known-noisy cases without loosening the whole gate. Measurements missing
from the baseline fail the gate so the baseline stays in sync with the
suite; regenerate with --update (per-entry factors are preserved, stale
entries are KEPT unless you also pass --prune) and review the diff like any
other code change.

A baseline may additionally gate RATIOS between two measurements of the
same run — machine-independent speedup contracts that survive runner churn
where absolute numbers cannot:

    "ratios": {
      "counter 8t speedup": {
        "numerator": "BM_ErosionStepCounter/1/real_time",  // the slow side
        "denominator": "BM_ErosionStepCounter/8/real_time",
        "min_ratio": 1.5,                  // gate: num/den >= this
        "min_cpus": 8                      // optional hardware guard
      }
    }

A ratio whose benchmarks did not run fails the gate (same staleness rule as
entries). `min_cpus` skips the ratio — with a printed notice — when the
results report fewer CPUs (google-benchmark's context.num_cpus) or when the
CPU count is unknown (JUnit results): thread-scaling contracts are only
meaningful on machines that can physically exhibit them.
"""

import json
import sys
import xml.etree.ElementTree as ET

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_junit(path):
    """(name -> wall-clock seconds per testcase, num_cpus=None)."""
    measured = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        name = case.get("name", "")
        if name:
            measured[name] = float(case.get("time", "0"))
    return measured, None


def load_benchmark_json(path):
    """(name -> time in ns for plain iteration runs, context num_cpus).

    Benchmarks registered with UseRealTime() carry a "/real_time" name
    suffix; for those the wall clock is the honest number (a pooled
    benchmark's cpu_time only counts the dispatching thread). Everything
    else gates on cpu_time as before.
    """
    with open(path, encoding="utf-8") as f:
        results = json.load(f)
    measured = {}
    for bench in results.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        scale = UNIT_TO_NS[bench.get("time_unit", "ns")]
        field = "real_time" if bench["name"].endswith("/real_time") else "cpu_time"
        measured[bench["name"]] = float(bench[field]) * scale
    num_cpus = results.get("context", {}).get("num_cpus")
    return measured, int(num_cpus) if num_cpus is not None else None


def entry_fields(entry, global_factor):
    """(baseline, max_factor) of one entry in either spelling."""
    if isinstance(entry, dict):
        return float(entry["baseline"]), float(
            entry.get("max_factor", global_factor))
    return float(entry), global_factor


def update_baseline(measured, baseline_path, unit, prune):
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
        if baseline.get("unit", unit) != unit:
            print(f"error: refusing to update {baseline_path} (records "
                  f"{baseline.get('unit')}) with {unit} measurements — "
                  "wrong results/baseline pairing?", file=sys.stderr)
            return 2
    except FileNotFoundError:
        baseline = ({"unit": "ns", "max_factor": 5.0, "floor": 5000.0}
                    if unit == "ns"
                    else {"unit": "seconds", "max_factor": 2.0, "floor": 1.0})
    old_entries = baseline.get("entries", {})
    digits = 4 if unit == "seconds" else 1
    entries = {}
    for name, value in sorted(measured.items()):
        rounded = round(value, digits)
        old = old_entries.get(name)
        if isinstance(old, dict):  # keep per-entry tolerances across updates
            entries[name] = {**old, "baseline": rounded}
        else:
            entries[name] = rounded
    # Entries the results file no longer exercises. A partial run (-R filter,
    # bench sharding) must not silently shrink the gate, so stale entries
    # survive the update unless deletion is explicitly requested.
    stale = sorted(set(old_entries) - set(entries))
    if stale and prune:
        print(f"removed {len(stale)} stale entries: {', '.join(stale)}")
    elif stale:
        for name in stale:
            entries[name] = old_entries[name]
        print(f"kept {len(stale)} stale entries (pass --prune to remove): "
              f"{', '.join(stale)}")
    baseline["entries"] = entries
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline updated: {len(entries)} entries -> {baseline_path}")
    return 0


def check_ratios(ratios, measured, num_cpus, failures):
    """Gate the baseline's `ratios` section; append failures in place."""
    for label, spec in sorted(ratios.items()):
        num, den = spec["numerator"], spec["denominator"]
        min_ratio = float(spec["min_ratio"])
        min_cpus = spec.get("min_cpus")
        if min_cpus is not None and (num_cpus is None
                                     or num_cpus < int(min_cpus)):
            # Machine-checkable skip notice: CI greps for the literal
            # "skipped (cpus<N)" marker so a filtered ratio can never pass
            # silently as "checked".
            have = "unknown" if num_cpus is None else str(num_cpus)
            print(f"  ratio {label}: skipped (cpus<{int(min_cpus)}) — "
                  f"needs >= {min_cpus} CPUs, results report {have}")
            continue
        missing = [n for n in (num, den) if n not in measured]
        if missing:
            failures.append(f"ratio {label}: benchmark(s) "
                            f"{', '.join(missing)} did not run")
            continue
        if measured[den] <= 0.0:
            failures.append(f"ratio {label}: denominator {den} measured "
                            "non-positive time")
            continue
        ratio = measured[num] / measured[den]
        verdict = "ok" if ratio >= min_ratio else "REGRESSED"
        print(f"  ratio {label}: {num}/{den} = {ratio:.2f} "
              f"(min {min_ratio:g})  {verdict}")
        if ratio < min_ratio:
            failures.append(f"ratio {label}: {ratio:.2f} below required "
                            f"{min_ratio:g} ({num} / {den})")


TOP_LEVEL_KEYS = {"description", "unit", "max_factor", "floor",
                  "entries", "ratios"}
ENTRY_KEYS = {"baseline", "max_factor"}
RATIO_KEYS = {"numerator", "denominator", "min_ratio", "min_cpus"}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_baseline(path):
    """Schema-check one baseline file; return a list of error strings.

    Runs in CI before the gate itself so a typo'd key (say `max_facto`)
    fails loudly instead of silently falling back to the global tolerance.
    """
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(baseline, dict):
        return [f"{path}: top level must be an object"]

    for key in sorted(set(baseline) - TOP_LEVEL_KEYS):
        errors.append(f"{path}: unknown top-level key '{key}'")
    for key in ("unit", "max_factor", "floor", "entries"):
        if key not in baseline:
            errors.append(f"{path}: missing required key '{key}'")
    if "unit" in baseline and baseline["unit"] not in ("ns", "seconds"):
        errors.append(f"{path}: unit must be 'ns' or 'seconds', got "
                      f"{baseline['unit']!r}")
    for key in ("max_factor", "floor"):
        if key in baseline and not _is_number(baseline[key]):
            errors.append(f"{path}: '{key}' must be a number")

    entries = baseline.get("entries", {})
    if not isinstance(entries, dict):
        errors.append(f"{path}: 'entries' must be an object")
        entries = {}
    for name, entry in sorted(entries.items()):
        where = f"{path}: entries['{name}']"
        if _is_number(entry):
            continue
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be a number or an object")
            continue
        for key in sorted(set(entry) - ENTRY_KEYS):
            errors.append(f"{where}: unknown key '{key}'")
        if "baseline" not in entry:
            errors.append(f"{where}: object form requires 'baseline'")
        for key in ENTRY_KEYS & set(entry):
            if not _is_number(entry[key]):
                errors.append(f"{where}: '{key}' must be a number")

    ratios = baseline.get("ratios", {})
    if not isinstance(ratios, dict):
        errors.append(f"{path}: 'ratios' must be an object")
        ratios = {}
    for label, spec in sorted(ratios.items()):
        where = f"{path}: ratios['{label}']"
        if not isinstance(spec, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in sorted(set(spec) - RATIO_KEYS):
            errors.append(f"{where}: unknown key '{key}'")
        for key in ("numerator", "denominator"):
            if not isinstance(spec.get(key), str) or not spec.get(key):
                errors.append(f"{where}: '{key}' must be a non-empty "
                              "benchmark name")
        if "min_ratio" not in spec or not _is_number(spec.get("min_ratio")):
            errors.append(f"{where}: 'min_ratio' must be a number")
        if "min_cpus" in spec and not (
                isinstance(spec["min_cpus"], int)
                and not isinstance(spec["min_cpus"], bool)):
            errors.append(f"{where}: 'min_cpus' must be an integer")
    return errors


USAGE = ("usage: perf_gate.py [--update [--prune]] <results: junit .xml | "
         "google-benchmark .json> <baseline .json>\n"
         "       perf_gate.py --validate <baseline .json>...")


def main() -> int:
    # Strict option parsing: --update/--prune are the only options. Anything
    # else that looks like a flag is a usage error (exit 2), never a file
    # path — previously `perf_gate.py --updtae results.json baseline.json`
    # fell through to open("--updtae") and died with a confusing
    # FileNotFoundError while silently treating the baseline as the results
    # file.
    update = False
    prune = False
    validate = False
    args = []
    for arg in sys.argv[1:]:
        if arg == "--update":
            update = True
        elif arg == "--prune":
            prune = True
        elif arg == "--validate":
            validate = True
        elif arg.startswith("-"):
            print(f"error: unknown option '{arg}'\n{USAGE}", file=sys.stderr)
            return 2
        else:
            args.append(arg)
    if prune and not update:
        print(f"error: --prune only makes sense with --update\n{USAGE}",
              file=sys.stderr)
        return 2
    if validate:
        if update or not args:
            print(f"error: --validate takes baseline file(s) only\n{USAGE}",
                  file=sys.stderr)
            return 2
        errors = []
        for path in args:
            errors.extend(validate_baseline(path))
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if errors:
            return 1
        print(f"validated {len(args)} baseline(s): schema ok")
        return 0
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        print(__doc__, file=sys.stderr)
        return 2
    results_path, baseline_path = args

    if results_path.endswith(".xml"):
        (measured, num_cpus), unit = load_junit(results_path), "seconds"
    else:
        (measured, num_cpus), unit = load_benchmark_json(results_path), "ns"
    if not measured:
        print(f"error: no measurements found in {results_path}",
              file=sys.stderr)
        return 2

    if update:
        return update_baseline(measured, baseline_path, unit, prune)

    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    if baseline.get("unit", unit) != unit:
        print(f"error: {results_path} measures {unit} but {baseline_path} "
              f"records {baseline.get('unit')}", file=sys.stderr)
        return 2
    global_factor = float(baseline["max_factor"])
    floor = float(baseline["floor"])
    entries = baseline["entries"]

    failures = []
    width = max((len(n) for n in measured), default=0)
    for name, value in sorted(measured.items()):
        if name not in entries:
            failures.append(f"{name}: no baseline recorded in {baseline_path}"
                            " (regenerate with --update)")
            continue
        base, factor = entry_fields(entries[name], global_factor)
        limit = max(factor * base, floor)
        verdict = "ok" if value <= limit else "REGRESSED"
        print(f"  {name:{width}s} {value:14.3f} {unit}  (baseline "
              f"{base:.3f}, limit {limit:.3f}, x{factor:g})  {verdict}")
        if value > limit:
            failures.append(f"{name}: {value:.3f} {unit} exceeds limit "
                            f"{limit:.3f} ({factor:g}x baseline {base:.3f})")

    for name in sorted(set(entries) - set(measured)):
        print(f"  note: baseline entry '{name}' did not run", file=sys.stderr)

    check_ratios(baseline.get("ratios", {}), measured, num_cpus, failures)

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
