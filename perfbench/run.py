"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload splash-rr --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every metric is printed as ``metric <name> <value> <unit>``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and a Chrome-trace file and a per-layer table are written to
``perfbench/out/``.  The run fails (``correct: false``) on an
unverified replay, a salvage coverage other than 1.0, a serve job that
is not done, a served artifact for another spec or one that differs
from an in-process re-execution, or exact metrics that differ from
``perfbench/exact.json`` for this seed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("splash-rr", "commercial-guarded", "serve-mix")
#: Set-ups measured per run (this process plus fresh probes).
SETUPS = 5
PROBE_TIMEOUT = 120.0
#: Every process of a run hashes strings with this seed, so set and
#: dict layouts, which move the simulator's speed by several percent,
#: are the same in every run.
HASH_SEED = "0"
#: Smoke runs (the benchmark's own tests) shrink every program.
SMOKE_SCALE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny programs; skips the exact-table check")
    parser.add_argument("--out-dir", default=str(ROOT / "perfbench" / "out"),
                        help="where a traced run writes its trace and "
                             "per-layer table")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def probe_setup(args, workdir: Path) -> list[float]:
    """Set-up times of fresh processes doing what this one did."""
    times = []
    for index in range(SETUPS - 1):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--probe"] + (["--smoke"] if args.smoke else [])
        env = dict(os.environ, PERFBENCH_WORKDIR=str(
            workdir / f"probe{index}"))
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, env=env, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_inproc(args, workdir: Path, min_jobs: int) -> dict:
    from perfbench import inproc
    from perfbench.spans import host_calib_ops_per_s

    scale = SMOKE_SCALE if args.smoke else None
    inproc.setup(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - STARTED
    if args.probe:
        return {"setup_s": setup_s}
    setups = [setup_s] + probe_setup(args, workdir)
    calib_start = host_calib_ops_per_s()
    result = inproc.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), workdir, min_jobs, scale=scale)
    result["e2e"] = inproc.end_to_end(result["untraced"],
                                      statistics.median(setups))
    result["recorders"] = [result["spans"]]
    result["calib_start"] = calib_start
    if args.trace:
        result["layers"] = inproc.per_layer(result)
    return result


def run_serve(args, workdir: Path, min_jobs: int) -> dict:
    from perfbench import serve_mix
    from perfbench.spans import host_calib_ops_per_s

    if args.smoke:
        serve_mix.SCALE = SMOKE_SCALE
    calib_start = host_calib_ops_per_s()
    result = serve_mix.run(ROOT, args.seed, args.seconds,
                           bool(args.trace), workdir, min_new=min_jobs,
                           min_hits=min_jobs // 5)
    result["exact"] = serve_mix.exact_metrics(result) \
        if not result["problems"] else {}
    result["e2e"] = serve_mix.end_to_end(result)
    result["calib_start"] = calib_start
    if args.trace:
        spans = [s for r in result["recorders"] for s in r.spans]
        result["layers"] = serve_mix.per_layer(
            result, lambda name: [s.duration for s in spans
                                  if s.name == name])
    return result


def exact_problems(workload: str, seed: int, exact: dict) -> list[str]:
    """Differences from the stored exact table for this seed."""
    with open(ROOT / "perfbench" / "exact.json", encoding="utf-8") as fh:
        table = json.load(fh)["workloads"].get(workload, {})
    stored = table.get(str(seed))
    if stored is None:
        return []
    return [f"exact metric {name}: {exact.get(name)!r} != stored "
            f"{value!r}" for name, value in stored.items()
            if exact.get(name) != value]


def write_trace(args, result: dict) -> str:
    from perfbench.spans import (format_layer_table, layer_table,
                                 write_chrome_trace)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{args.workload}-seed{args.seed}"
    write_chrome_trace(f"{stem}.trace.json", result["recorders"],
                       f"perfbench {args.workload}")
    spans = [s for r in result["recorders"] for s in r.spans]
    table = format_layer_table(layer_table(spans))
    with open(f"{stem}.layers.txt", "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import (check_self_time_identity,
                                 host_calib_ops_per_s, min_samples_for)

    workdir = Path(os.environ.get("PERFBENCH_WORKDIR") or
                   ROOT / ".perfbench_work" /
                   f"{args.workload}-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    min_jobs = 0 if args.trace else min_samples_for(0.9)
    try:
        if args.probe:
            print(f"SETUP {run_inproc(args, workdir, 0)['setup_s']!r}")
            return 0
        if args.workload == "serve-mix":
            result = run_serve(args, workdir, min_jobs)
        else:
            result = run_inproc(args, workdir, min_jobs)
        calib_start = result["calib_start"]
        calib_end = host_calib_ops_per_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(result["problems"])
    if not args.smoke and result["exact"]:
        problems += exact_problems(args.workload, args.seed,
                                   result["exact"])
    units = catalogue()[args.trace]
    if args.trace:
        problems += check_self_time_identity(
            [s for r in result["recorders"] for s in r.spans])
        values = {name: 0.0 for name in units}
        values.update({k: v for k, v in result["exact"].items()
                       if k in units})
        values.update(result["layers"])
        values["bench.host_calib_ops_per_s"] = (calib_start
                                                + calib_end) / 2
        values["bench.failed_frac"] = (result["failed"]
                                       / max(1, result["attempted"]))
        print(write_trace(args, result))
    else:
        values = dict(result["e2e"])
        values.update({k: v for k, v in result["exact"].items()
                       if k in units})
    missing = [n for n in units if values.get(n) is None]
    if missing and not problems:
        print(f"perfbench: no value for {', '.join(missing)} (too few "
              f"samples for a percentile?)", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" attempted {result['attempted']} failed {result['failed']}")
    print(f"host_calib_ops_per_s start {calib_start:.0f} "
          f"end {calib_end:.0f}")
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        value = 0.0 if value is None else value
        print(f"metric {name} {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
