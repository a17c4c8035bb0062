"""qstarlab benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Load shape: a closed loop with one client (one
process, one thread; each operation starts when the previous one has
returned), BLAS and OpenMP pinned to one thread.  Passes over the
workload's fixed operation list repeat until ``--seconds`` is used up.

Workloads (see workloads.py):

* cli-bundles: ``qstarlab.cli.main`` in-process on every README example,
  every subcommand on every bundle/family pair, ``all`` on every bundle,
  ``lp`` at k = 2 and 8, expected typed failures, and seeded elements
  with closed-form answers.  Fixed per-call costs dominate.
* gastar-corpus: ``ga_star_check`` on fresh corpus pairs at n = 4 and 6,
  the heaviest library path: many queries against one family.
* intake-n8: structure validation, family validation, sufficiency and
  radical on fresh n = 8 corpus pairs: the first things done with a new
  instance.

With ``--trace 0`` the metrics are setup_s (median time to import the
library, over fresh interpreters), pass_s (median wall time of one
pass), op_p50_ms and op_p90_ms (over every operation of the run) and
peak_rss_mb.  With ``--trace 1`` half the time runs untraced and half
traced, and the metrics are the per-layer values of spans.py per pass,
plus trace.overhead_frac (traced pass_s over untraced, minus 1).

Every operation's answer fields are checked against the reference; the
last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
defects of ROADMAP item 4 are probed on cli-bundles after the passes and
reported by name on the line before it.  A full record, and with tracing
the spans, go to perfbench/out/.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"     # before numpy is first imported

import argparse
import gc
import hashlib
import json
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
OUT = HERE / "out"

SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

_IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import qstarlab, qstarlab.cli; "
                 "print(time.perf_counter() - t)")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "qstarlab" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'qstarlab'}; run from a qstarlab checkout")
    sys.path.insert(0, str(SRC))
    import qstarlab
    import qstarlab.cli
    if Path(qstarlab.__file__).resolve().parent != SRC / "qstarlab":
        fail(f"imported qstarlab from {qstarlab.__file__}, not from {SRC}")


def setup_seconds():
    """Median import time of the library over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    h = hashlib.sha256()
    for path in sorted((SRC / "qstarlab").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return {"git_sha": git_sha(), "source_digest": h.hexdigest(),
            "numpy": numpy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "threads_env": {v: os.environ[v] for v in THREAD_VARS}}


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(ops, tracer=None, first_op=0):
    """Run every operation once; returns (wall seconds, latencies, outcomes)."""
    from workloads import Raised

    latencies = []
    outcomes = []
    perf = time.perf_counter
    started = perf()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        t0 = perf()
        try:
            outcome = op.call()
        except Exception as exc:  # an unexpected error is a failed operation
            outcome = Raised(type(exc).__name__)
        latencies.append(perf() - t0)
        outcomes.append(outcome)
    return perf() - started, latencies, outcomes


class Phase:
    """Passes over the operation list until a time budget is spent."""

    def __init__(self, ops):
        self.ops = ops
        self.pass_s = []
        self.latencies = []       # per pass: seconds per operation
        self.answers = []         # per pass: list of answer dicts
        self.failures = {}        # op name -> first mismatch seen

    def run(self, seconds, min_passes, tracer=None, on_pass=None):
        started = time.perf_counter()
        while True:
            # the library's memos hold reference cycles (a form and its
            # representation) that the cycle collector may leave for many
            # passes; collecting here, untimed, keeps peak_rss_mb to what
            # one pass needs instead of how many passes ran
            gc.collect()
            first = len(self.pass_s) * len(self.ops)
            if tracer is not None:
                tracer.reset_counters()
            wall, lat, outcomes = run_pass(self.ops, tracer, first)
            if on_pass is not None:
                on_pass()
            self.pass_s.append(wall)
            self.latencies.append(lat)
            self.answers.append([op.answer(o) for op, o in zip(self.ops, outcomes)])
            elapsed = time.perf_counter() - started
            if len(self.pass_s) >= min_passes and \
                    elapsed + statistics.median(self.pass_s) > seconds:
                return

    def check(self, against=None):
        """Count failed operations: answer differs from the reference, or,
        given ``against`` (answers of another run), from that run's."""
        from workloads import mismatches

        failed = 0
        for answers in self.answers:
            for k, (op, got) in enumerate(zip(self.ops, answers)):
                if op.expected is None:
                    bad = ["no reference answer recorded"]
                else:
                    bad = mismatches(op.expected, got, op.tol)
                if against is not None and got != against[k]:
                    bad.append("answer differs between the traced and untraced run")
                if bad:
                    failed += 1
                    self.failures.setdefault(op.name, bad[:3])
        return failed

    @property
    def attempted(self):
        return len(self.answers) * len(self.ops)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import_library()
    own_import_s = time.perf_counter() - t0

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    setup_s, setup_samples = setup_seconds()
    ops, digest = workloads.build_ops(args.workload, args.seed,
                                      workloads.load_reference(args.workload))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_digest": digest, "ops_per_pass": len(ops),
              "environment": environment(), "own_import_s": own_import_s,
              "setup_samples_s": setup_samples}

    untraced = Phase(ops)
    if args.trace == 0:
        untraced.run(args.seconds, MIN_PASSES)
        failed = untraced.check()
        attempted = untraced.attempted
        lat = sorted(x for p in untraced.latencies for x in p)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_s": metric(statistics.median(untraced.pass_s), "s"),
            "op_p50_ms": metric(1000.0 * statistics.median(lat), "ms"),
            "op_p90_ms": metric(1000.0 * statistics.quantiles(lat, n=10)[8], "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["op_samples"] = len(lat)
        record["pass_s_all"] = untraced.pass_s
        record["op_latencies_s"] = untraced.latencies
    else:
        untraced.run(args.seconds / 2.0, MIN_TRACED_PASSES)
        tracer = Tracer()
        tracer.install()
        traced = Phase(ops)
        per_pass = []
        traced.run(args.seconds / 2.0, MIN_TRACED_PASSES, tracer,
                   on_pass=lambda: per_pass.append(tracer.counters()))
        tracer.uninstall()
        failed = untraced.check() + traced.check(against=untraced.answers[0])
        untraced.failures.update(traced.failures)
        attempted = untraced.attempted + traced.attempted
        metrics = {name: metric(statistics.median(p[name] for p in per_pass),
                                "s" if name.endswith("_s") else
                                "ratio" if name.endswith("_frac") else
                                "bytes" if name.endswith(".bytes") else "count")
                   for name in per_pass[0]}
        metrics["trace.overhead_frac"] = metric(
            statistics.median(traced.pass_s) / statistics.median(untraced.pass_s) - 1.0,
            "ratio")
        record["absent_layer_functions"] = tracer.absent
        record["pass_s_untraced"] = untraced.pass_s
        record["pass_s_traced"] = traced.pass_s
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")

    defects = {}
    if args.workload == "cli-bundles":
        defects = workloads.run_known_defects(OUT)
        record["known_defects_failing"] = defects
        print("known defects (ROADMAP item 4) still failing: "
              + (", ".join(f"{k} ({v})" for k, v in defects.items()) or "none"))
    if args.trace == 1:
        metrics["cli.known_defects.failing"] = metric(len(defects), "count")

    record["failures"] = untraced.failures
    for name, why in untraced.failures.items():
        print(f"failed: {name}: {'; '.join(why)}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({k: record[k] for k in ("input_digest", "ops_per_pass", "environment")}
                     | {"op_samples": record.get("op_samples")}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
