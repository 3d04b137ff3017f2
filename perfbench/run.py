#!/usr/bin/env python3
"""The splitquat benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Run from the root of a checkout; the library is imported from ``src``.
Each run measures one workload in a closed loop (one client, one thread,
the next op sent when the previous one returned), checks every output
outside the timed region, writes a result file with its metadata under
``.perfbench_out/`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--compare`` reads result files (or directories of them) and marks
each metric of each workload better, worse, unchanged or unresolved.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import calib
import kernels
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: float-mixed is not in BENCHMARK.json: about 7% of its ops fail by the
#: float backend's scale defect, which it exists to measure, and a
#: benchmark workload must be one on which no op fails.
WORKLOADS = ("algebra-exact", "families-exact", "float-mixed", "cli")

#: Fresh interpreters per run whose median is setup_s.
SETUP_PROBES = 9
#: Op time between two readings of the reference kernel (and two rounds of checks).
BATCH_NS = 50_000_000
#: Items per batch of a traced run, run untraced and then traced.
TRACE_BATCH = 32
#: Subprocess runs whose median gives cli.interpreter_ms and cli.import_ms.
FLOOR_PROBES = 5


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(p * len(sorted_values)) - 1))]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# set-up time and the CLI floor
# ----------------------------------------------------------------------


def probe_argv(workload):
    import inputs

    if workload == "cli":
        return ["cli"] + [" ".join(line) for line in inputs.README_COMMANDS]
    return ["library", "1" if workload == "float-mixed" else "0"] + list(inputs.menu(workload))


def setup_seconds(workload):
    """Per-probe set-up seconds, each in a fresh interpreter, at reference speed."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")] + probe_argv(workload),
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds, *reference = proc.stdout.split()
        values.append(float(seconds) * calib.factor([int(r) for r in reference]))
    return values


def process_ms(code: str):
    """Median wall milliseconds of `python -c code`, over FLOOR_PROBES runs."""
    times = []
    for _ in range(FLOOR_PROBES):
        reference = calib.kernel_ns(1)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 1000 * calib.factor(reference + calib.kernel_ns(1)))
    return statistics.median(times)


def cli_floor():
    """cli.interpreter_ms, cli.import_ms and cli.main_us (README lines, in process)."""
    import inputs
    import ops

    interpreter = process_ms("pass")
    imported = process_ms("import splitquat.cli")
    lines = [list(line) + ["--json"] for line in inputs.README_COMMANDS]
    for argv in lines:
        ops.cli_main(argv)
    rounds = []
    for _ in range(5):
        reference = calib.kernel_ns(1)
        start = time.perf_counter()
        for argv in lines:
            ops.cli_main(argv)
        elapsed = time.perf_counter() - start
        rounds.append(elapsed / len(lines) * 1e6 * calib.factor(reference + calib.kernel_ns(1)))
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported - interpreter,
        "cli.main_us": statistics.median(rounds),
    }


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


class Verifier:
    """Checks results and counts failures.

    The first result of an item is checked in full; a later result of the
    same item that equals an already judged one gets the same verdict.
    Items on the float backend may fail by the float backend's known scale
    defect: their failures count in `failed` but not in `exact_failed`.
    """

    def __init__(self, judge, labels, on_float):
        self.judge = judge  # index, result -> bool
        self.labels = labels  # index -> label for the failure breakdown
        self.on_float = on_float  # index -> whether the item ran on floats
        self.judged = {}
        self.checked = 0
        self.failed = 0
        self.exact_failed = 0
        self.crashes = 0
        self.failures = Counter()

    def record(self, index, result):
        self.checked += 1
        previous = self.judged.get(index)
        if previous is not None and not isinstance(result, BaseException) and previous[0] == result:
            ok = previous[1]
        else:
            ok = self.judge(index, result)
            if not isinstance(result, BaseException):
                self.judged[index] = (result, ok)
        if not ok:
            self.failed += 1
            self.exact_failed += not self.on_float[index]
            self.failures[self.labels[index]] += 1
            if isinstance(result, BaseException) and not _expected_error(result):
                self.crashes += 1


def _expected_error(exc) -> bool:
    """Errors the library raises on purpose (as opposed to a crash)."""
    import splitquat

    return isinstance(exc, (splitquat.SplitQuaternionError, ArithmeticError))


# ----------------------------------------------------------------------
# the loops
# ----------------------------------------------------------------------


def timed_loop(calls, verifier, seconds):
    """Closed loop over calls until seconds of op time at reference speed.

    Ops run in batches of at least BATCH_NS; the reference kernel is
    timed before and after each batch, and each latency is scaled by the
    batch's factor.  Returns the scaled latencies in ns, per item.
    """
    clock = time.perf_counter_ns
    budget = seconds * 1e9
    latencies = [[] for _ in calls]
    busy = 0
    i = 0
    n = len(calls)
    while busy < budget:
        batch = []
        reference = calib.kernel_ns()
        batch_start = clock()
        while clock() - batch_start < BATCH_NS:
            fn, args = calls[i % n]
            start = clock()
            try:
                result = fn(*args)
            except Exception as exc:  # judged as a failure by the verifier
                result = exc
            end = clock()
            batch.append((i % n, result, end - start))
            i += 1
        scale = calib.factor(reference + calib.kernel_ns())
        for index, result, elapsed in batch:
            latencies[index].append(elapsed * scale)
            busy += elapsed * scale
            verifier.record(index, result)
    return latencies


def run_items(calls, indices, tracer=None):
    """Run the given items once, in order; returns (op ns, results)."""
    clock = time.perf_counter_ns
    results = []
    busy = 0
    for index in indices:
        fn, args = calls[index]
        if tracer:
            tracer.op_id = index
        start = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # judged as a failure by the verifier
            result = exc
        busy += clock() - start
        results.append((index, result))
    return busy, results


def traced_loop(calls, verifier, seconds, tracer, span_file):
    """Rounds over the pool until seconds of op time at reference speed.

    A round runs the pool in batches of TRACE_BATCH items, each batch
    first untraced and then traced, so that both see the same host speed.
    Every round runs the same ops on the same values, so counts per op
    repeat exactly.  Spans are kept for the first round only and written
    to span_file after it.  Returns (traced ops, tracing overhead, whether
    counts repeated, self ns per layer at reference speed).
    """
    plain_ns = traced_ns = rounds = 0
    self_ns = Counter()
    round_counts = []
    while rounds == 0 or plain_ns + traced_ns < seconds * 1e9:
        before = tracer.counts_only()
        for low in range(0, len(calls), TRACE_BATCH):
            batch = range(low, min(low + TRACE_BATCH, len(calls)))
            reference = calib.kernel_ns()
            plain, plain_results = run_items(calls, batch)
            self_before = Counter(tracer.self_ns)
            tracer.install()
            try:
                traced, traced_results = run_items(calls, batch, tracer)
            finally:
                tracer.uninstall()
            scale = calib.factor(reference + calib.kernel_ns())
            plain_ns += plain * scale
            traced_ns += traced * scale
            for layer, ns in tracer.self_ns.items():
                self_ns[layer] += (ns - self_before[layer]) * scale
            for index, result in plain_results + traced_results:
                verifier.record(index, result)
        rounds += 1
        if tracer.recording:
            tracer.recording = False
            tracer.write_spans(span_file)
            tracer.spans.clear()
        after = tracer.counts_only()
        round_counts.append({k: after[k] - before.get(k, 0) for k in after})
    overhead = 1 - plain_ns / traced_ns
    repeat = all(c == round_counts[0] for c in round_counts)
    return rounds * len(calls), overhead, repeat, self_ns


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def library_calls(workload, seed):
    import inputs
    import ops
    import oracle

    approx = workload == "float-mixed"
    items = inputs.pool(workload, seed)
    calls = [(ops.RUN[kind], ops.to_library(args, approx)) for kind, _, args, _ in items]
    ops.warm_up(dict.fromkeys(kind for kind, _, _, _ in items), approx)

    def judge(index, result):
        kind, _, args, _ = items[index]
        return oracle.check(kind, args, result, approx)

    labels = [f"{kind} [{case}]" + (f" 2^{k}" if approx else "") for kind, case, _, k in items]
    return calls, Verifier(judge, labels, [approx] * len(items)), len(items)


def cli_expected_code(argv) -> int:
    """1 for a false similar/consimilar verdict, else 0, by the exact oracle."""
    import qalg
    import splitquat

    if argv[0] not in ("similar", "consimilar"):
        return 0
    a, b = (tuple(splitquat.parse_quat(s, backend="exact").coeffs) for s in argv[1:3])
    matrix = qalg.t_mat(a, b) if argv[0] == "similar" else qalg.s_mat(a, b)
    return 0 if qalg.has_invertible(qalg.kernel(matrix)) else 1


def cli_judge(argvs):
    """Judge (exit code, stdout): verified, expected code, same as in process."""
    import ops

    reference = {}

    def judge(index, result):
        if isinstance(result, BaseException):
            return False
        code, stdout = result
        if index not in reference:
            reference[index] = ops.cli_main(argvs[index])
        try:
            document = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False
        return (
            document.get("verified") is True
            and code == cli_expected_code(argvs[index])
            and (code, stdout) == reference[index]
        )

    return judge


def cli_process(argv, env):
    """One `python -m splitquat` process: ((code, stdout), peak RSS in KiB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "splitquat"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    )
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, stdout.decode()), usage.ru_maxrss


def cli_loop(argvs, verifier, seconds):
    """CLI processes until seconds of process time at reference speed.

    Returns (latencies in ns per item, peak child RSS KiB).

    A CLI process is mostly interpreter start and import, which the
    Fraction kernel does not track; so the reference here is a bare
    interpreter start, timed before every other process, and each
    latency is scaled by calib.PROCESS_NS over the median of the last
    five of them.
    """
    env = child_env()
    clock = time.perf_counter_ns
    latencies = [[] for _ in argvs]
    bare = deque(maxlen=5)
    peak = 0
    busy = 0
    i = 0
    while busy < seconds * 1e9:
        if i % 2 == 0:
            bare.append(calib.bare_process_ns(env, ROOT))
        index = i % len(argvs)
        start = clock()
        result, rss = cli_process(argvs[index], env)
        end = clock()
        elapsed = (end - start) * calib.PROCESS_NS / statistics.median(bare)
        latencies[index].append(elapsed)
        busy += elapsed
        peak = max(peak, rss)
        verifier.record(index, result)
        i += 1
    return latencies, peak


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def run(args):
    import inputs
    import ops

    # one CPU for this process and its children, so that the reference
    # kernel runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = metadata(args)
    if args.workload == "cli":
        argvs = inputs.cli_pool(args.seed)
        verifier = Verifier(
            cli_judge(argvs),
            [" ".join(a[:1] + a[-2:]) for a in argvs],
            ["approx" in a for a in argvs],
        )
        pool_size = len(argvs)
    else:
        calls, verifier, pool_size = library_calls(args.workload, args.seed)
    meta["pool_items"] = pool_size

    if args.trace:
        # the fixed rows first, so that nothing the traced passes leave
        # in memory weighs on them
        values = kernels.measure()
        values.update(cli_floor())
        tracer = spans.Tracer()
        if args.workload == "cli":
            calls = [(ops.cli_main, (argv,)) for argv in argvs]
            for argv in argvs:
                ops.cli_main(argv)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        traced_ops, overhead, repeat, self_ns = traced_loop(
            calls, verifier, args.seconds, tracer, span_file
        )
        values.update(tracer.per_op(traced_ops, self_ns))
        values["trace.overhead_frac"] = overhead
        values["check.failed_frac"] = verifier.failed / verifier.checked
        meta.update(
            traced_ops=traced_ops,
            counts_repeat_across_rounds=repeat,
            counts=tracer.counts_only(),
            spans_file=str(span_file.relative_to(ROOT)),
        )
        units = PER_LAYER_UNITS
    else:
        setup = setup_seconds(args.workload)
        if args.workload == "cli":
            latencies, rss_kib = cli_loop(argvs, verifier, args.seconds)
        else:
            latencies = timed_loop(calls, verifier, args.seconds)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # On the library workloads an item's latency is the median of its
        # repetitions, which drops the odd interrupted one, and throughput
        # and percentiles are taken over items.  A CLI line runs only two or
        # three times a run, too few for that.  There throughput and p50
        # count every process, and the tail is over each line's fastest
        # process: interference only adds time to a process, and a tail of
        # single processes mostly measures it.  Those choices spread least
        # from seed to seed.
        if args.workload == "cli":
            typical = sorted(t for item in latencies for t in item)
            tail = sorted(min(t) for t in latencies if t)
        else:
            typical = tail = sorted(statistics.median(t) for t in latencies if t)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(typical) / (sum(typical) / 1e9),
            "latency_p50_us": percentile(typical, 0.50) / 1000,
            "latency_tail_us": percentile(tail, TAIL[args.workload]) / 1000,
            "peak_rss_mb": rss_kib / 1024,
        }
        meta.update(
            tail_percentile=TAIL[args.workload],
            setup_probes_s=setup,
            latency_samples=sum(len(t) for t in latencies),
            latency_items=sum(1 for t in latencies if t),
            repetitions_per_item=statistics.median(len(t) for t in latencies),
        )
        units = END_TO_END_UNITS

    meta.update(
        attempted=verifier.checked,
        failed=verifier.failed,
        failed_on_exact_backend=verifier.exact_failed,
        failed_frac=verifier.failed / verifier.checked,
        unexpected_errors=verifier.crashes,
        failures=dict(verifier.failures.most_common()),
    )
    # Float-backend failures are the measured scale defect and count in
    # `failed`; an exact-backend failure, or an error the library does not
    # raise on purpose, makes the run incorrect.
    correct = verifier.crashes == 0 and verifier.exact_failed == 0
    result = {
        "correct": correct,
        "attempted": verifier.checked,
        "failed": verifier.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.trace{args.trace}.seed{args.seed}.{os.getpid()}.json"
    path.write_text(json.dumps({"meta": meta, **result}, indent=1))
    report(meta, result, path)
    print(json.dumps(result))
    return 0


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}

#: The tail percentile: the highest one with about ten items beyond it
#: (1104 to 1856 items on the library workloads, 86 command lines on cli).
TAIL = {"algebra-exact": 0.99, "families-exact": 0.99, "float-mixed": 0.99, "cli": 0.90}


def _per_layer_units():
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_us"] = "us/op"
    units.update(
        {
            "scalars.fraction_calls": "calls/op",
            "matrices.eliminations": "calls/op",
            "matrices.term_decompositions": "calls/op",
            "solvers.family_matrix_builds": "calls/op",
            "similarity.witness_probes": "calls/op",
            "similarity.witness_hit_ratio": "ratio",
            "similarity.exactness_escalations": "calls/op",
            "trace.overhead_frac": "ratio",
            "check.failed_frac": "ratio",
            "cli.interpreter_ms": "ms",
            "cli.import_ms": "ms",
            "cli.main_us": "us",
        }
    )
    for backend in ("exact", "float"):
        for row in kernels.ROWS:
            units[f"kernel.{row}_{backend}_us"] = "us"
    return units


PER_LAYER_UNITS = _per_layer_units()


def report(meta, result, path):
    """Human-readable lines, before the JSON line."""
    print(
        f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
        f"{meta['python']}  nproc {meta['nproc']}  git {meta['git_sha'][:12]}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(
        f"  failed {meta['failed']} of {meta['attempted']} ops checked "
        f"(failed_frac {meta['failed_frac']:.4f}, unexpected errors {meta['unexpected_errors']})"
    )
    for label, count in list(meta["failures"].items())[:10]:
        print(f"    {count:6d}  {label}")
    print(f"  result file {path.relative_to(ROOT)}")


def run_all(args):
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if not (SRC / "splitquat" / "__init__.py").is_file():
        print(f"error: no splitquat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
