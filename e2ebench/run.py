"""End-to-end benchmark of the SAGDFN serving and training stack.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload serve-cluster --seed 1 --seconds 30 --trace 0

Workloads: ``serve-cluster``, ``stream-online``, ``train-epoch`` (see
``BENCHMARK.json`` and ``e2ebench/README.md``).  The seed drives every
generated input.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--tiny`` shrinks every workload to seconds-long test sizes, and
``--inject-fault`` corrupts one checked output per check so that the
checks can be seen to fail; both exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402  (sets no state; numpy is not imported yet)

WORKLOADS = ("serve-cluster", "stream-online", "train-epoch")


def _merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_settings(tiny: bool) -> tuple[dict, dict]:
    """The benchmark's workload settings and the ``BENCHMARK.json`` declaration."""
    settings = json.loads((BENCH_DIR / "config.json").read_text())
    if tiny:
        settings = _merge(settings, settings["tiny"])
    declaration = json.loads((common.CHECKOUT / "BENCHMARK.json").read_text())
    return settings, declaration


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def format_metrics(raw: dict, declared: list[dict], fill_missing: bool) -> dict:
    """Attach the declared units; a layer the workload never calls reads 0."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in raw:
            if not fill_missing:
                raise KeyError(f"workload did not measure {name!r}")
            value = 0.0
        else:
            value = raw[name]
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    unknown = sorted(set(raw) - {entry["name"] for entry in declared})
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.CHECKOUT / "src" / "repro").is_dir():
        print(f"error: no program source at {common.CHECKOUT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for name, value in common.BLAS_ENV.items():
        os.environ[name] = value
    sys.path.insert(0, str(common.CHECKOUT / "src"))

    settings, declaration = load_settings(args.tiny)
    print(json.dumps({"host": common.host_record()}), flush=True)

    if args.workload == "serve-cluster":
        import serve_cluster as workload
    elif args.workload == "stream-online":
        import stream_online as workload
    else:
        import train_epoch as workload
    try:
        result = workload.run(
            settings[args.workload], settings["model"], args.seed, args.seconds,
            bool(args.trace), args.inject_fault,
        )
    finally:
        common.stop_child_processes()
    for phase in result.pop("phases"):
        print(json.dumps(phase), flush=True)
    for note in result.pop("notes", []):
        print(json.dumps({"note": note}), flush=True)
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = format_metrics(result["metrics"], declared,
                                       fill_missing=bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
