"""Regenerate ``perfbench/exact.json``: each workload's exact metrics
for a list of seeds.

    python3 perfbench/exact.py --seeds 0-10,1001

Exact metrics are simulated results, counts and byte sizes.  They
repeat bit for bit for a seed, so every benchmark run whose seed is in
the table compares its own against it and fails on any difference.
Only a change of simulated behaviour may change them; regenerate the
table in the change that does so and say why.  The serve-mix values
are computed here by the runner in-process; the benchmark run reads
them from the artifacts the server returns.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "perfbench" / "exact.json"


def compute(workload: str, seed: int, workdir: Path) -> dict:
    if workload == "serve-mix":
        from perfbench import serve_mix
        from repro.runner.cache import ResultCache
        from repro.runner.jobs import execute_spec
        from repro.serve.kinds import build_job_spec

        cache = ResultCache(workdir / "cache")
        artifacts = {}
        for index in range(serve_mix.EXACT_UNITS):
            record, replay = serve_mix.unit_params(seed, index)
            record_spec = build_job_spec("record", record)
            rec = execute_spec(record_spec)
            cache.store(record_spec, rec)
            artifacts[index] = (
                rec, execute_spec(build_job_spec("replay", replay), cache))
        return serve_mix.exact_metrics({"artifacts": artifacts})
    from perfbench import inproc
    from perfbench.spans import SpanRecorder

    op = inproc.OPS[workload]
    ops = [op(item, inproc.SCALES[workload], SpanRecorder(False), False,
              workdir)
           for index in range(inproc.EXACT_PASSES[workload])
           for item in inproc.plan(workload, seed, index)]
    problems = [p for o in ops for p in o.problems]
    if problems:
        raise RuntimeError("; ".join(problems))
    return inproc.exact_metrics(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10,1001")
    parser.add_argument("--workloads",
                        default="splash-rr,commercial-guarded,serve-mix")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spread import seeds_from

    with open(TABLE, encoding="utf-8") as handle:
        table = json.load(handle)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="exact-",
                                    dir=ROOT / ".perfbench_work"))
    try:
        for workload in args.workloads.split(","):
            for seed in seeds_from(args.seeds):
                table["workloads"].setdefault(workload, {})[str(seed)] = \
                    compute(workload, seed, workdir)
                print(f"{workload} seed {seed} done", flush=True)
                with open(TABLE, "w", encoding="utf-8") as handle:
                    json.dump(table, handle, indent=1, sort_keys=True)
                    handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
