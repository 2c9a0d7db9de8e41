"""Run a workload over several seeds and report each end-to-end
metric's spread against its bound.

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10

The spread is the distance between the first and third quartile of
the runs' values (``statistics.quantiles(values, n=4)``) as a share of
their median.  A metric is steady when its spread is below a third of
its bound; ``setup_s`` is reported but has no spread requirement.
Runs are sequential, so they do not compete for the host.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        calib = next(line for line in lines
                     if line.startswith("host_calib_ops_per_s"))
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {calib}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    status = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        share = spread(values[name])
        steady = name == "setup_s" or share < metric["bound"] / 3
        status |= not steady
        print(f"{name:<24} median {statistics.median(values[name]):<14.6g}"
              f" spread {share:.4f}  bound {metric['bound']}"
              f"  {'ok' if steady else 'NOT STEADY'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
