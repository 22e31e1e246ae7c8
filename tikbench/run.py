"""tik's benchmark: seeded known-answer workloads through tik's public API.

One client, closed loop, one op at a time, no threads.  An op is one
user-level call for one case; the benchmark's own check of its answer
runs right after it, outside the timed op.

    python3 tikbench/run.py --workload metric-members --seed 1 --seconds 20 --trace 0
    python3 tikbench/run.py --seed 1      # every workload, untraced then traced

A run imports tik, builds the corpus from the seed and warms up (five
times, for ``setup_s``),
runs every case once, then runs the light cases again in further rounds
until ``--seconds`` have passed.  Counts (``nodes_total``,
``decided_share``, ``failed_share``) are those of the cases; every repeat
must give the same verdict and node count.  With ``--trace 1`` every case
runs once untraced and once traced, and the per-layer metrics come from
the traced round.

Times are CPU seconds at a reference speed (see ``RefClock``).

The last line of standard output is one JSON object.  The exit code is 1
when a verdict contradicts the known answer, a certificate fails to
re-verify or a repeat changes an answer, and 2 when tik's sources are
missing.
"""

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".tikbench"
WORKLOADS = ("metric-members", "exhaustive-search", "toolkit-pipeline")
SETUPS = 5  # setup_s takes the median of this many imports, builds and warm-ups
MIN_SAMPLES = 100  # op_s.p90 needs ten samples beyond it
MIN_ROUNDS, REPEAT_UNDER = 3, 0.5  # light cases: under this many seconds
DECIDED = ("member", "nonmember", "complete")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "decided_share": "ratio",
    "nodes_total": "count",
    "peak_rss_mb": "MB",
}

# rows: (cid, family, n, verdict, nodes, seconds, failed, problem) per case;
# cpu: raw CPU seconds inside ops
Result = namedtuple("Result", "rows cpu")


def reference_work():
    """Fixed pure-Python work, independent of tik: rationals, a set and a
    list, like the toolkit's own inner loops."""
    acc, seen, order = Fraction(0), set(), []
    for i in range(1, 1500):
        acc += Fraction(i % 7, i % 5 + 1)
        seen.add((i * 7919) % 1031)
        order.append(i % 13)
        if len(order) > 64:
            order.sort()
            del order[:32]
    return acc, len(seen)


class RefClock:
    """CPU time scaled to a reference speed.

    On a shared host the CPU time of fixed work swings by 1.5x and more
    within a minute, with the load on the other hardware thread.  So the
    clock times ``reference_work`` (best of two) at least every INTERVAL
    seconds, between ops and, by a CPU-time signal, inside long ones, and
    after any op of LONG seconds or more; it scales each stretch of CPU
    time by REFERENCE_S over the mean of the timings at its two ends: a reported second is a second on a machine
    where the reference work takes REFERENCE_S.  Calibration time is not
    counted in the op.
    """

    REFERENCE_S = 0.005
    INTERVAL = 0.25
    LONG = 0.05  # an op this long is also timed against the speed right after it

    def __init__(self):
        self.checked = -math.inf
        self.factor = 1.0
        self.spent = 0.0  # CPU seconds spent calibrating
        self.mark = 0.0  # ``cpu()`` where the current stretch began
        self.scaled = 0.0  # reference seconds of the op so far
        self.raw = 0.0  # CPU seconds of the op so far
        signal.signal(signal.SIGPROF, self._tick)

    def cpu(self) -> float:
        """CPU seconds of this thread, calibration excluded."""
        return time.thread_time() - self.spent

    def _calibrate(self):
        start = time.thread_time()
        samples = []
        for _ in range(2):
            t = time.thread_time()
            reference_work()
            samples.append(time.thread_time() - t)
        self.factor = self.REFERENCE_S / min(samples)
        self.checked = time.perf_counter()
        self.spent += time.thread_time() - start

    def _tick(self, signum, frame):
        """Close the current stretch against a fresh calibration."""
        stretch = self.cpu() - self.mark
        before = self.factor
        self._calibrate()
        self.scaled += stretch * (before + self.factor) / 2
        self.raw += stretch
        self.mark = self.cpu()

    def start(self):
        """Before an op."""
        self.scale()
        self.scaled = self.raw = 0.0
        self.mark = self.cpu()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self):
        """After the op: (reference seconds, CPU seconds) it took."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        stale = time.perf_counter() - self.checked >= self.INTERVAL
        if stale or self.raw + self.cpu() - self.mark >= self.LONG:
            self._tick(None, None)
        else:
            stretch = self.cpu() - self.mark
            self.scaled += stretch * self.factor
            self.raw += stretch
        return self.scaled, self.raw

    def measure(self, fn):
        """(reference seconds, result) of ``fn()``, which may use the clock
        itself: its CPU time scaled by the mean of fresh calibrations right
        before and right after it."""
        self._calibrate()
        before, start = self.factor, self.cpu()
        out = fn()
        spent = self.cpu() - start
        self._calibrate()
        return spent * (before + self.factor) / 2, out

    def scale(self) -> float:
        """The current factor, re-measured when it is stale."""
        if time.perf_counter() - self.checked >= self.INTERVAL:
            self._calibrate()
        return self.factor


def import_corpus():
    """Import tik, from this checkout's sources and never from elsewhere, and
    the corpus afresh: every module body runs again, as in a new process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m in ("tik", "corpus") or m.startswith("tik.")]:
        del sys.modules[name]
    corpus = importlib.import_module("corpus")
    if Path(corpus.tik.__file__).resolve().parent != SRC / "tik":
        print(f"tikbench: imported tik from {corpus.tik.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return corpus


def percentile(sorted_xs, p):
    """Nearest rank."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def run_cases(cases, clock, seconds=0.0, min_rounds=1, tracer=None):
    """Run every case once, then keep running the light ones (under
    REPEAT_UNDER seconds) in further rounds, at least ``min_rounds`` in all
    and until ``seconds`` have passed.  Every round goes in its own
    shuffled order, so the samples of a case, and the cases of one
    stratum, fall at different moments of the run.  A case's latency is
    the median of its samples, and every sample must repeat the first
    one's verdict and node count.  Each op starts after a full collection,
    so it pays only for its own garbage; its check runs afterwards,
    untimed."""
    samples = [[] for _ in cases]
    answers = [set() for _ in cases]
    first = [None] * len(cases)
    cpu = 0.0
    todo = list(range(len(cases)))
    start, round_ = time.perf_counter(), 0
    while todo and (round_ < min_rounds or time.perf_counter() - start < seconds):
        random.Random(round_).shuffle(todo)
        round_ += 1
        for i in todo:
            case = cases[i]
            gc.collect()
            if tracer is not None:
                tracer.op = i
            clock.start()
            try:
                out, err = case.call(), None
            except Exception as exc:  # a crash is a failed op, never skipped
                out, err = None, exc
            dt, raw = clock.stop()
            if tracer is not None:
                tracer.op = None
            if err is not None:
                verdict, nodes, problem = f"error:{type(err).__name__}", case.budget, None
            else:
                verdict, nodes, problem = case.check(out)
            del out
            samples[i].append(dt)
            answers[i].add((verdict, nodes))
            cpu += raw
            if first[i] is None:
                first[i] = (verdict, nodes, err, problem)
        todo = [i for i in todo if samples[i][0] < REPEAT_UNDER]
    rows = []
    for i, case in enumerate(cases):
        verdict, nodes, err, problem = first[i]
        if len(answers[i]) > 1:
            problem = f"repeats disagree: {sorted(answers[i])}"
        if err is not None:
            print(f"# {case.cid} raised {type(err).__name__}: {str(err)[:200]}", file=sys.stderr)
        if problem is None and case.exact_nodes is not None and nodes != case.exact_nodes:
            print(f"# {case.cid}: node count changed: {nodes}, baseline {case.exact_nodes}",
                  file=sys.stderr)
        if problem is not None:
            print(f"# WRONG {case.cid}: {problem}", file=sys.stderr)
        rows.append((case.cid, case.family, case.n, verdict, nodes,
                     statistics.median(samples[i]), err is not None or problem is not None,
                     problem))
    return Result(rows, cpu)


def print_ops(workload, results):
    """Per-op rows: case id, engine/family, n, verdict, nodes, seconds."""
    for i, r in enumerate(results[0].rows):
        seconds = statistics.median(res.rows[i][5] for res in results)
        print(f"op\t{workload}\t{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}\t{seconds:.6f}")


def run_workload(args):
    if not (SRC / "tik" / "__init__.py").is_file():
        print(f"tikbench: no tik sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    clock = RefClock()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()

    def setup():
        corpus = import_corpus()
        cases = corpus.build(args.workload, args.seed, str(workdir))
        return cases, run_cases(corpus.warmup(args.workload, str(workdir)), clock)

    try:
        # tik is imported, the corpus built and the warm-up run SETUPS times;
        # the ops use the last set-up.  Interpreter start-up is left out: it
        # is not tik's, and it swings more than the rest of set-up together
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            took, (cases, warm) = clock.measure(setup)
            setups.append(took)
        setup_s = statistics.median(setups)
        if len(cases) < MIN_SAMPLES:
            sys.exit(f"tikbench: {args.workload} has {len(cases)} cases, fewer than {MIN_SAMPLES}")
        gc.collect()
        gc.freeze()  # the corpus is long-lived: keep it out of the ops' collections
        if args.trace:
            return traced(args, cases, clock, warm)
        return untraced(args, cases, clock, setup_s, warm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, cases, clock, setup_s, warm):
    res = run_cases(cases, clock, args.seconds, MIN_ROUNDS)
    latencies = sorted(math.inf if r[6] else r[5] for r in res.rows)
    searches = [r for case, r in zip(cases, res.rows) if case.searches]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": sum(not r[6] for r in res.rows) / sum(r[5] for r in res.rows),
        "op_s.p50": percentile(latencies, 50),
        "op_s.p90": percentile(latencies, 90),
        "decided_share": sum(r[3] in DECIDED for r in searches) / len(searches),
        "nodes_total": sum(r[4] for r in res.rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print_ops(args.workload, [res])
    failed = [r for r in res.rows if r[6]]
    kinds = dict(Counter(r[3] for r in failed))
    for name, unit in END_TO_END.items():
        extra = f"  (n={len(latencies)})" if name.startswith("op_s") else ""
        print(f"{args.workload}\t{name}\t{metrics[name]:.6g} {unit}{extra}")
    print(f"{args.workload}\tfailed_share\t{len(failed) / len(res.rows):.6g} ratio  {kinds}")
    return finish(warm, [res], metrics, END_TO_END)


def traced(args, cases, clock, warm):
    from spans import PER_LAYER, Tracer

    plain = run_cases(cases, clock)
    tracer = Tracer(clock.cpu)
    tracer.install()
    try:
        spanned = run_cases(cases, clock, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.per_layer(spanned.cpu, sum(r[5] for r in spanned.rows),
                               sum(r[5] for r in plain.rows))
    print_ops(args.workload, [plain, spanned])
    for name, unit in PER_LAYER.items():
        print(f"{args.workload}\t{name}\t{metrics[name]:.6g} {unit}")
    return finish(warm, [plain, spanned], metrics, PER_LAYER)


def finish(warm, results, metrics, units):
    """Print the result line.  Correct: no wrong answer, no certificate that
    fails, and every run of a case giving the same verdict and nodes.
    ``attempted`` and ``failed`` count cases once per result, not repeats:
    how many rounds fit in ``--seconds`` varies from run to run, and a
    case's repeats must all agree with its first run anyway."""
    signatures = {tuple((r[0], r[3], r[4]) for r in res.rows) for res in results}
    if len(signatures) > 1:
        print("# WRONG: the traced round changed a verdict or a node count", file=sys.stderr)
    correct = len(signatures) == 1 and all(
        r[7] is None for res in [warm, *results] for r in res.rows)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(res.rows) for res in results),
        "failed": sum(r[6] for res in results for r in res.rows),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, untraced then traced with the
    same seed; the two runs must agree op by op."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        outputs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("op\t")))
            status = status or proc.returncode
            outputs.append(lines)
        ops = [[line.split("\t")[2:7] for line in lines if line.startswith("op\t")]
               for lines in outputs]
        if ops[0] != ops[1]:
            print(f"# WRONG: {workload}: untraced and traced runs disagree", file=sys.stderr)
            status = status or 1
        summary[workload] = json.loads(outputs[0][-1]) if outputs[0] else None
    print("\nworkload\t" + "\t".join(END_TO_END) + "\tfailed_share")
    for workload, result in summary.items():
        if result is None:
            continue
        m = result["metrics"]
        cells = [f"{m[k]['value']:.4g} {m[k]['unit']}" for k in END_TO_END]
        cells.append(f"{result['failed'] / result['attempted']:.4g} ratio")
        print(workload + "\t" + "\t".join(cells))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
