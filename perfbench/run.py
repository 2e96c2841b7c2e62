"""signseg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Inputs are generated from the seed before any timing, and trained
fixture checkpoints are cached under ./.perfbench_cache. Requests then run
back to back for about S seconds, and every call's outputs are checked. The last line of stdout is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
see perfbench/README.md for their definitions.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
SETUP_REPEATS = 9


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter until signseg.cli is imported."""
    probe = ("import time; import signseg.cli; "
             "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True)
        samples.append(float(done.stdout.strip()) - start)
    return statistics.median(samples)


class Runner:
    """Runs a workload's requests through signseg.cli.main, optionally traced."""

    def __init__(self, workload, workdir):
        from signseg import cli

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.count = 0

    def request(self, tracer=None):
        """One request in a fresh output directory; returns (calls, root span ids)."""
        out_dir = os.path.join(self.workdir, f"out{self.count}")
        self.count += 1
        roots = []

        def call_cli(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc, sid = tracer.call(f"cli.{argv[0]}", lambda: self.cli.main(argv))
                    roots.append(sid)
                return rc, time.perf_counter() - start

        calls = self.workload.request(call_cli, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return calls, roots


def timed_loop(seconds: float, step) -> None:
    """Call step() until about `seconds` have passed; always at least once.

    A step starts only if a step of median length would still end in time.
    """
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def end_to_end(workload, requests, setup_s) -> dict:
    calls = [c for req in requests for c in req]
    thru = [c for c in calls if c.command == workload.throughput_command]
    lat = [c.wall for c in calls if c.command == workload.latency_command]
    ok = sum(1 for c in calls if not c.problems)
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (sum(c.frames for c in thru) / sum(c.wall for c in thru), "frames/s"),
        "call_s.p50": (statistics.median(lat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok / len(calls), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "signseg", "cli.py")):
        print(f"run.py: no signseg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(CACHE, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload.prepare(workdir, args.seed, CACHE, SRC)
        runner = Runner(workload, workdir)
        if args.trace:
            untraced, traced = [], []
            tracer = spans.Tracer()

            def pair():
                calls, _ = runner.request()
                untraced.append(calls)
                with tracer:
                    calls, roots = runner.request(tracer)
                traced.append((calls, roots))

            timed_loop(args.seconds, pair)
            checked = untraced + [calls for calls, _ in traced]
            tracer.dump(os.path.join(CACHE, f"trace-{args.workload}-{args.seed}.jsonl"))
            metrics = spans.layer_metrics(tracer, traced, untraced)
        else:
            timed = []
            timed_loop(args.seconds, lambda: timed.append(runner.request()[0]))
            checked = timed
            metrics = end_to_end(workload, timed, setup_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calls = [c for req in checked for c in req]
    failed = [c for c in calls if c.problems]
    for c in failed:
        print(f"run.py: {c.command} failed: {'; '.join(c.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
