#!/usr/bin/env python3
"""Bench gate.

Compares the BENCH_<name>.json rows a --quick bench run wrote against a
committed gate file and fails (exit 1) when any gated field is outside
its bound. Two gate files use it: bench/baseline.json (the hot-path and
engine throughput benches) and bench/envelopes.json (the scenario
matrix: weighted SWOR's exact inclusion law and Theorem 3's message
cost). Run from CI after the bench jobs, or locally:

    python3 tools/check_bench.py --build-dir build
    python3 tools/check_bench.py --build-dir build --baseline bench/envelopes.json
    python3 tools/check_bench.py --build-dir build --update   # re-record

Gate file schema:

    {"benches": {"<name>": {
        "key_fields": ["endpoint", "path"],           # row identity
        "fields": {"<field>": {"kind": ..., <bound>}},
        "rows": [{<key fields + gated fields>}, ...]}}}

A field is gated on a row when the recorded row carries it. Kinds:

  floor    current >= an absolute "value", or >= recorded * (1 - "drop").
           Absolute p-value floors (chisq_p, ks_p) do not compare p with
           the recorded run: that would turn libm jitter across platforms
           into failures, while an exact protocol's fixed-seed p sits far
           above 1e-3 unless the law itself changed.
           With "drop", an optional "reference" row (its key fields)
           normalizes the ratio: every other row is also compared as
           current_row/current_ref against recorded_row/recorded_ref, so
           a uniformly slow or fast runner cancels out. A normalized row
           fails only when it is beyond tolerance both normalized and
           absolutely: a slower runner passes via the ratio, a runner
           whose core count reshapes the multithreaded/single-thread
           ratio passes via the absolute number, and a real regression
           fails both. The reference row itself is gated absolutely with
           the wider "reference_drop" (default 0.75): its job is only to
           catch whole-build cliffs such as an accidental -O0 bench, a
           5-10x drop. A field the reference row does not carry is gated
           absolutely.
  ceiling  current <= recorded * (1 + "rise") + "slack" (both default 0).
           The slack keeps near-zero recorded values (degraded_trials = 0)
           from demanding exact reproduction across platforms; latency on
           a shared runner needs a wide rise.
  exact    current == "value" (a correctness claim: silent_wrong 0,
           bit_identical 1), or == the recorded value when "value" is
           absent (cell identity: a cell that changed its configuration is
           not comparable to its record).

A missing BENCH file, recorded row or gated field is a hard failure (a
silently vanished measurement is itself a regression); --allow-missing
downgrades all three to notes, for intentionally restricted local runs
(CI runs without it). Current rows absent from the gate file are
reported as new. --update merges the current rows into the gate file by
key, keeping only key and gated fields, and keeps rows the run did not
produce (a restricted run must not un-gate the rest); --merge=min keeps
the smaller floor and the larger ceiling of stored and measured, so
repeated updates converge on the loosest observed bound.
"""

import argparse
import json
import os
import sys

# kind -> the bound keys its spec may carry besides "kind".
KINDS = {
    "floor": {"value", "drop", "reference", "reference_drop"},
    "ceiling": {"rise", "slack"},
    "exact": {"value"},
}
BENCH_KEYS = {"key_fields", "fields", "rows"}


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate(gate):
    """Rejects a malformed gate file: with the bounds in data, a typo would
    otherwise silently un-gate a field."""
    for name, bench in gate["benches"].items():
        def bad(msg):
            raise SystemExit(f"gate file: {name}: {msg}")

        if set(bench) != BENCH_KEYS:
            bad(f"keys {sorted(bench)} != {sorted(BENCH_KEYS)}")
        for field, spec in bench["fields"].items():
            kind = spec.get("kind")
            if kind not in KINDS:
                bad(f"{field}: unknown kind {kind!r}")
            unknown = set(spec) - KINDS[kind] - {"kind"}
            if unknown:
                bad(f"{field}: unknown {kind} key(s) {sorted(unknown)}")
            if kind == "floor" and ("value" in spec) == ("drop" in spec):
                bad(f"{field}: a floor needs exactly one of value and drop")
            if set(spec.get("reference", bench["key_fields"])) != set(
                    bench["key_fields"]):
                bad(f"{field}: reference must name exactly the key fields")
    return gate


def load_gate(path):
    return validate(load_json(path))


def row_key(row, key_fields):
    return tuple((k, row.get(k)) for k in key_fields)


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def index_rows(rows, key_fields):
    out = {}
    for row in rows:
        key = row_key(row, key_fields)
        if key in out:
            raise SystemExit(f"duplicate row key {fmt_key(key)}; "
                             "key_fields do not uniquely identify rows")
        out[key] = row
    return out


def reference_values(name, bench, recorded, current, missing):
    """{field: (ref_key, recorded ref value, current ref value)} for each
    field whose reference row carries it in both the record and the run."""
    refs = {}
    reported = set()
    for field, spec in bench["fields"].items():
        if "reference" not in spec:
            continue
        ref_key = row_key(spec["reference"], bench["key_fields"])
        rec_ref, cur_ref = recorded.get(ref_key), current.get(ref_key)
        if rec_ref is None or cur_ref is None:
            if ref_key not in reported:
                reported.add(ref_key)
                missing(f"{name}: reference row [{fmt_key(ref_key)}] missing "
                        f"from {'gate file' if rec_ref is None else 'run'} "
                        "— cannot normalize")
            continue
        rv, cv = rec_ref.get(field), cur_ref.get(field)
        if rv and cv:
            refs[field] = (ref_key, rv, cv)
    return refs


def gate_value(spec, key, rec, cur, ref):
    """(ok, detail) for one gated value; `ref` is its reference_values
    entry or None."""
    if spec["kind"] == "exact":
        want = spec.get("value", rec)
        return cur == want, f"{cur} (required {want})"
    if spec["kind"] == "ceiling":
        bound = rec * (1.0 + spec.get("rise", 0.0)) + spec.get("slack", 0.0)
        return cur <= bound, (f"{cur:.4g} vs recorded {rec:.4g} "
                              f"(ceiling {bound:.4g})")
    if "value" in spec:
        return cur >= spec["value"], f"{cur:.4g} (floor {spec['value']:g})"
    ratio = cur / rec if rec else float("inf")
    detail = f"{cur:.3g} vs recorded {rec:.3g} ({ratio:.2f}x"
    if ref is not None and key == ref[0]:
        drop = spec.get("reference_drop", 0.75)
        return cur >= rec * (1.0 - drop), detail + ", reference)"
    abs_ok = cur >= rec * (1.0 - spec["drop"])
    if ref is None:
        return abs_ok, detail + ")"
    norm_rec, norm_cur = rec / ref[1], cur / ref[2]
    norm_ok = norm_cur >= norm_rec * (1.0 - spec["drop"])
    return norm_ok or abs_ok, (
        f"{norm_cur:.3g} vs recorded {norm_rec:.3g} normalized "
        f"({norm_cur / norm_rec:.2f}x, absolute {ratio:.2f}x)")


def check(gate, build_dir, allow_missing=False):
    failures = []
    notes = []

    def missing(msg):
        if allow_missing:
            notes.append("skip  " + msg)
        else:
            failures.append("MISSING " + msg)

    for name, bench in gate["benches"].items():
        path = os.path.join(build_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            missing(f"{name}: {path} not found — bench did not run")
            continue
        key_fields = bench["key_fields"]
        current = index_rows(load_json(path)["rows"], key_fields)
        recorded = index_rows(bench["rows"], key_fields)
        refs = reference_values(name, bench, recorded, current, missing)
        for key, rec_row in recorded.items():
            cur_row = current.get(key)
            if cur_row is None:
                missing(f"{name}: row [{fmt_key(key)}] missing "
                        "from current run")
                continue
            for field, spec in bench["fields"].items():
                if rec_row.get(field) is None:
                    continue
                where = f"{name}: [{fmt_key(key)}] {field}"
                if cur_row.get(field) is None:
                    missing(f"{where} missing from current run")
                    continue
                ok, detail = gate_value(spec, key, rec_row[field],
                                        cur_row[field], refs.get(field))
                tag = "ok    " if ok else f"{spec['kind'].upper():<8}"
                (notes if ok else failures).append(f"{tag}{where} {detail}")
        for key in current:
            if key not in recorded:
                notes.append(f"new   {name}: [{fmt_key(key)}] not in "
                             "gate file (run --update to gate it)")
    return failures, notes


def update(gate, build_dir, gate_path, merge="replace"):
    for name, bench in gate["benches"].items():
        path = os.path.join(build_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            print(f"warning: {path} not found — keeping {name}'s "
                  "rows unchanged")
            continue
        key_fields, fields = bench["key_fields"], bench["fields"]
        merged = index_rows(bench["rows"], key_fields)
        for row in load_json(path)["rows"]:
            key = row_key(row, key_fields)
            new_row = {k: row[k] for k in key_fields + list(fields) if k in row}
            old = merged.get(key)
            if merge == "min" and old is not None:
                for field, spec in fields.items():
                    pick = {"floor": min, "ceiling": max}.get(spec["kind"])
                    if pick and field in new_row and old.get(field) is not None:
                        new_row[field] = pick(old[field], new_row[field])
            merged[key] = new_row
        bench["rows"] = list(merged.values())
    with open(gate_path, "w", encoding="utf-8") as f:
        json.dump(gate, f, indent=1)
        f.write("\n")
    print(f"gate file updated: {gate_path}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build",
                        help="directory holding the BENCH_*.json outputs")
    parser.add_argument("--baseline", default=None,
                        help="gate file (default: bench/baseline.json "
                             "next to this script's repo root)")
    parser.add_argument("--update", action="store_true",
                        help="merge the current rows into the gate file")
    parser.add_argument("--merge", choices=["replace", "min"],
                        default="replace",
                        help="with --update: 'min' keeps the smaller floor "
                             "and the larger ceiling of stored and measured")
    parser.add_argument("--allow-missing", action="store_true",
                        help="report missing bench files / rows / gated "
                             "fields instead of failing on them (for "
                             "intentionally restricted local runs; CI "
                             "must not pass this)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gate_path = args.baseline or os.path.join(repo_root, "bench",
                                              "baseline.json")
    gate = load_gate(gate_path)

    if args.update:
        update(gate, args.build_dir, gate_path, args.merge)
        return 0

    failures, notes = check(gate, args.build_dir,
                            allow_missing=args.allow_missing)
    for line in notes:
        print(line)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"\nbench gate FAILED: {len(failures)} failure(s) against "
              f"{gate_path}", file=sys.stderr)
        return 1
    print(f"\nbench gate passed ({len(notes)} checks within bounds of "
          f"{gate_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
