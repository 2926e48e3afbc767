"""The congroup benchmark: one seeded workload, checked, timed, optionally traced.

    python3 perfbench/run.py --workload {laws,invariants,wide} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the run exits 2 without a result when it is missing.

One client in one process runs a closed loop: each query starts when the
previous one has returned.  A pass is the workload's fixed list of queries
for the seed, generated before any timing.  Every pass starts from the state
of a fresh process (congroup's function caches cleared, garbage collected),
so every pass does the same work.

* ``--trace 0`` runs one untimed warm-up pass whose answers are checked
  against independent references, then repeats timed passes until
  ``--seconds`` have been spent in queries, checking every answer against the
  warm-up one, with a fresh-interpreter set-up measurement before each pass.
  It reports the end-to-end metrics: each query's latency is its fastest over
  the timed passes, set-up the median cold start.
* ``--trace 1`` runs the warm-up pass, then two untraced passes alternating
  with two passes with spans around congroup's layer entry points (see
  spans.py), and reports the per-layer metrics of the first traced pass and
  the tracing overhead.  Its counts repeat exactly for a seed.
* Before every pass and cold start the process moves to the CPU that runs a
  short fixed loop fastest, the one other tenants of the host load least.

Warnings keep the interpreter's default filters, as a library user has
them; they are recorded instead of printed and their count is reported.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import gen
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15
# the CPUs this process may run on when it starts
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def log(line=""):
    print(line, flush=True)


# -- set-up ------------------------------------------------------------------------


def cold_start(workload, seed):
    """Seconds one fresh interpreter takes to import congroup and build the
    workload's set-up (see setup_probe.py)."""
    pin_to_calmest_cpu()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def import_congroup():
    sys.path.insert(0, str(SRC))
    import congroup
    import congroup.cli  # noqa: F401

    if Path(congroup.__file__).resolve().parent != SRC / "congroup":
        sys.exit(f"congroup imported from {congroup.__file__}, not from {SRC}")
    return workloads.Lib()


def pin_to_calmest_cpu():
    """Move the process (and the cold starts it launches) to the allowed CPU
    that runs a fixed loop fastest right now.  On a shared host, another
    tenant often loads one core's sibling for seconds at a time; each pass
    then runs on the core it disturbs least."""
    if len(CPUS) < 2:
        return
    try:
        speed = []
        for cpu in CPUS[:8]:  # a few candidates keep the probe short
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            speed.append((time.perf_counter() - t0, cpu))
        os.sched_setaffinity(0, {min(speed)[1]})
    except OSError:  # affinity not settable here: run where the kernel puts us
        pass


def reset_caches():
    """Clear every functools cache congroup keeps, so that each pass starts
    as a fresh process would."""
    for name, mod in list(sys.modules.items()):
        if name == "congroup" or name.startswith("congroup."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


# -- checking ------------------------------------------------------------------------


def corrupt(answer):
    """The answer with one entry changed: a coefficient, a bit, a flag or a
    count.  Used to show that the checks catch a single wrong value."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, str):
        if answer and set(answer) <= {"0", "1"}:
            i = len(answer) // 2
            return answer[:i] + ("1" if answer[i] == "0" else "0") + answer[i + 1 :]
        return answer + "!"
    if answer is None:
        return 0
    if isinstance(answer, tuple):
        if not answer:
            return (1,)
        i = 0 if len(answer) == 2 else len(answer) // 2
        return answer[:i] + (corrupt(answer[i]),) + answer[i + 1 :]
    raise TypeError(f"cannot corrupt {type(answer).__name__}")


class Checker:
    def __init__(self):
        self.failed = 0
        self.attempted = 0
        self.reports = []

    def record(self, query, got, want):
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.reports) < 5:
                self.reports.append(f"wrong answer for {query.kind}: got {_short(got)}, want {_short(want)}")

    def error(self, query, err):
        self.attempted += 1
        self.failed += 1
        if len(self.reports) < 5:
            self.reports.append(f"{query.kind} raised {''.join(traceback.format_exception_only(err)).strip()}")


def _short(value, limit=300):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def run_pass(queries, wants, checker, latencies=None):
    """One pass; returns the answers and the seconds spent inside queries."""
    pin_to_calmest_cpu()
    reset_caches()
    clock = time.perf_counter
    answers, spent = [], 0.0
    for query, want in zip(queries, wants):
        t0 = clock()
        try:
            got = query.call()
        except Exception as err:  # a failed query is counted, the run goes on
            dt = clock() - t0
            checker.error(query, err)
            answers.append(err)
        else:
            dt = clock() - t0
            got = query.normalize(got)
            checker.record(query, got, want)
            answers.append(got)
        spent += dt
        if latencies is not None:
            latencies.append(dt)
    return answers, spent


def self_check(queries, answers):
    """Every query type's checker must count a corrupted answer as failed."""
    seen, probe = set(), Checker()
    for query, answer in zip(queries, answers):
        if query.kind in seen or isinstance(answer, Exception):
            continue
        seen.add(query.kind)
        probe.record(query, corrupt(answer), query.expect)
    return probe.failed == len(seen), sorted(seen)


# -- metrics ---------------------------------------------------------------------------


def end_to_end(passes, setup_samples):
    """Every timed pass runs the same queries from the same state, so each
    query's latency is taken as its fastest over the passes: on a shared
    machine, other tenants slow whole stretches of seconds, and the fastest
    repetition is the one they disturbed least.  Throughput and percentiles
    are over those per-query latencies; set-up is the median cold start."""
    best = [min(runs) * 1e3 for runs in zip(*passes)]
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        "queries_per_s": (len(best) / (sum(best) / 1e3), "1/s"),
        "latency_p50_ms": (deciles[4], "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr, untraced_s, traced_s):
    evals = tr.calls("cocycles.eval")
    digits = tr.counts["sections.digits"]
    bits = tr.counts["fingerprint.bits"]
    lookups = 2 * tr.calls("fingerprint.equiv")
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "series.mul.calls": (tr.calls("series.mul"), "count"),
        "series.mul.self_s": (tr.self_s("series.mul"), "s"),
        "series.mul.coeff_pairs": (tr.counts["series.mul.coeff_pairs"], "count"),
        "series.init.calls": (tr.calls("series.init"), "count"),
        "series.init.self_s": (tr.self_s("series.init"), "s"),
        "series.add.calls": (tr.calls("series.add"), "count"),
        "series.add.self_s": (tr.self_s("series.add"), "s"),
        "series.text.calls": (tr.calls("series.text"), "count"),
        "series.text.self_s": (tr.self_s("series.text"), "s"),
        "series.agree.calls": (tr.calls("series.agree"), "count"),
        "series.agree.self_s": (tr.self_s("series.agree"), "s"),
        "cocycles.eval.calls": (evals, "count"),
        "cocycles.eval.self_s": (tr.self_s("cocycles.eval"), "s"),
        "cocycles.self_s": (tr.self_s("cocycles"), "s"),
        "cocycles.out_coeffs": (tr.counts["cocycles.out_coeffs"], "count"),
        "cocycles.empty_frac": (ratio(tr.counts["cocycles.empty"], evals), "ratio"),
        "cocycles.window_too_small": (tr.counts["cocycles.window_too_small"], "count"),
        "extensions.mul.calls": (tr.calls("extensions.mul"), "count"),
        "extensions.inverse.calls": (tr.calls("extensions.inverse"), "count"),
        "extensions.self_s": (tr.self_s("extensions"), "s"),
        "fingerprint.calls": (tr.calls("fingerprint.profile"), "count"),
        "fingerprint.self_s": (tr.self_s("fingerprint"), "s"),
        "fingerprint.evals_per_bit": (ratio(tr.edge("fingerprint.profile", "cocycles.eval"), bits), "evals/bit"),
        "fingerprint.cache_hit_frac": (
            ratio(lookups - tr.edge("fingerprint.equiv", "fingerprint.profile"), lookups),
            "ratio",
        ),
        "sections.build.calls": (tr.calls("sections.build"), "count"),
        "sections.digits": (digits, "count"),
        "sections.self_s": (tr.self_s("sections"), "s"),
        "sections.series_ops_per_digit": (
            ratio(tr.edge("sections", "series.add") + tr.edge("sections", "series.mul"), digits),
            "ops/digit",
        ),
        "classify.calls": (tr.calls("classify"), "count"),
        "classify.self_s": (tr.self_s("classify"), "s"),
        "cli.calls": (tr.calls("cli"), "count"),
        "cli.self_s": (tr.self_s("cli"), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
    }


# -- main ---------------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "congroup" / "__init__.py").is_file():
        print(f"error: no congroup sources at {SRC}", file=sys.stderr)
        return 2

    log(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    log(f"python {platform.python_version()}  cpus {os.cpu_count()}  machine {platform.machine()}")
    if not args.trace:
        cold_start(args.workload, args.seed)  # writes the bytecode cache; not counted
    raw = gen.generate(args.workload, args.seed)
    log(f"inputs sha256 {gen.digest(raw)}  ({len(raw['queries'])} queries a pass)")

    checker = Checker()
    with warnings.catch_warnings(record=True) as caught:
        lib = import_congroup()
        setup = workloads.build_setup(lib, raw["setup"])
        queries = workloads.build_queries(lib, raw, setup)
        wants = [q.expect for q in queries]
        answers, _ = run_pass(queries, wants, checker)
        checks_work, kinds = self_check(queries, answers)
        # from here on every answer must equal the checked warm-up answer
        if args.trace:
            import spans

            # untraced and traced passes alternate; each side's time sums its
            # queries' fastest latencies, as in end_to_end
            plain, traced, tracers = [[], []], [[], []], []
            for i in range(2):
                run_pass(queries, answers, checker, plain[i])
                tracers.append(spans.Tracer())
                tracers[-1].install()
                try:
                    run_pass(queries, answers, checker, traced[i])
                finally:
                    tracers[-1].remove()
            best = lambda runs: sum(map(min, zip(*runs)))
            passes = 5
            metrics = per_layer(tracers[0], best(plain), best(traced))
        else:
            # cold starts are spread between the passes, so that their median
            # samples the whole run rather than one stretch of it
            timed, samples, spent = [], [], 0.0
            while spent < args.seconds or len(samples) < SETUP_REPEATS:
                samples.append(cold_start(args.workload, args.seed))
                if spent < args.seconds:
                    timed.append([])
                    spent += run_pass(queries, answers, checker, timed[-1])[1]
            passes = 1 + len(timed)
            metrics = end_to_end(timed, samples)

    warned = Counter(w.category.__name__ for w in caught)
    log(f"passes {passes}  queries {checker.attempted}  failed {checker.failed}"
        f"  failed_frac {checker.failed / checker.attempted:.6g}")
    log(f"self-check: a corrupted answer is caught for {len(kinds)} query types: {'yes' if checks_work else 'NO'}")
    log("warnings recorded: " + (", ".join(f"{k} {v}" for k, v in sorted(warned.items())) or "none"))
    for line in checker.reports:
        log(f"  {line}")
    if args.trace:
        failures = {k: v for k, v in tracers[0].counts.items() if k.endswith(("window_too_small", "insufficient_precision"))}
        log("layer failures: " + (", ".join(f"{k} {v}" for k, v in sorted(failures.items())) or "none"))
    else:
        log(f"setup_s samples {' '.join(f'{s:.4f}' for s in samples)}")
        log(f"latency samples {len(queries)} queries, each the fastest of {len(timed)} timed passes")
    for name, (value, unit) in metrics.items():
        log(f"  {name:32s} {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0 and checks_work,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
