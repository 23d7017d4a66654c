"""Benchmark of the stringcasimir package: four workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload thermal --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``thermal`` calls
the library in this process, one operation at a time (closed loop, one
client); ``cli`` runs ``stringcasimir <command>`` as one child process at
a time.  See README.md.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
QUICK_SIZE = 1 / 16
CHILD_TIMEOUT_S = 120
# what the installed ``stringcasimir`` console script runs
CLI_SHIM = "import sys; from stringcasimir.cli import main; sys.exit(main())"


def samples(args):
    """Fresh interpreters started to time set-up and import."""
    return 1 if args.quick else SETUP_SAMPLES


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_package():
    sys.path.insert(0, str(SRC))
    import stringcasimir

    if SRC.resolve() not in Path(stringcasimir.__file__).resolve().parents:
        raise RuntimeError(f"stringcasimir imported from {stringcasimir.__file__}, not {SRC}")
    return stringcasimir


def make_args(pkg, fn, p):
    if fn == "casimir_two_piece_thermal":
        return pkg.StringConfig(p["s"], p["x"]), pkg.ThermalConfig(p["T"])
    if fn == "casimir_2n_thermal":
        return pkg.NPieceConfig(p["N"], p["x"]), pkg.ThermalConfig(p["T"])
    if fn == "free_energy":
        return pkg.QuantumStringConfig(p["s"], p["T_II"]), p["beta"]
    raise ValueError(fn)


def make_call(pkg, fn, args):
    # look the function up at call time, so that a traced pass calls the wrapper
    return lambda: getattr(pkg, fn)(*args)


def setup_library(seed, size):
    """Import, input build and warm-up: everything before the first timed
    operation of a library workload."""
    pkg = import_package()
    ops = workloads.build(seed, size)
    calls = [make_call(pkg, fn, make_args(pkg, fn, p)) for fn, p in ops]
    for fn in dict.fromkeys(fn for fn, _ in ops):
        getattr(pkg, fn)(*make_args(pkg, fn, workloads.WARMUP[fn]))
    return pkg, ops, calls


def probe_setup(args):
    """Wall time from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"] + (["--quick"] if args.quick else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Loop:
    """Whole passes over one operation list, each operation timed alone."""

    def __init__(self, calls, failure_types):
        self.calls = calls
        self.failure_types = failure_types
        # the wall times of each operation, one per pass it completed in
        self.times = [[] for _ in calls]
        self.pass_times = []
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.mismatched = 0

    def more(self, begin, seconds):
        """Start the first pass, and another one if it should end within
        the run's time at the pace of the last one."""
        if not self.pass_times:
            return True
        return time.perf_counter() - begin + self.pass_times[-1] <= seconds

    def run(self, seconds):
        clock = time.perf_counter
        begin = clock()
        while self.more(begin, seconds):
            out = []
            start = clock()
            for i, call in enumerate(self.calls):
                t0 = clock()
                try:
                    res = call()
                except self.failure_types as exc:
                    res = exc
                t1 = clock()
                out.append(res)
                if not isinstance(res, Exception):
                    self.times[i].append(t1 - t0)
            self.pass_times.append(clock() - start)
            self._record(out)
        return self

    def _record(self, out):
        self.attempted += len(out)
        self.failed += sum(isinstance(r, Exception) for r in out)
        if self.first is None:
            self.first = out
            return
        for a, b in zip(self.first, out):
            if isinstance(a, Exception) or isinstance(b, Exception):
                same = type(a) is type(b)
            else:
                same = a == b
            self.mismatched += not same

    def end_to_end(self):
        """Throughput over the whole run, and latency quantiles over the
        operations of a pass, each operation at its mean over the run's
        passes: every figure averages the machine's speed over the run
        instead of resting on one pass or one stretch of it."""
        completed = self.attempted - self.failed
        lat = [statistics.fmean(t) for t in self.times if t]
        p95 = statistics.quantiles(lat, n=20, method="inclusive")[18] if len(lat) > 1 else lat[0]
        return {
            "ops_per_s": (completed / sum(self.pass_times), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "latency_p95_ms": (1000.0 * p95, "ms"),
        }


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_library(pkg, ops, results, seed):
    import refs

    return refs.check_thermal(pkg, ops, results, seed)


class CommandFailed(Exception):
    """A command that exited non-zero: args are (exit code, stdout, stderr)."""


def _command_result(code, stdout, stderr):
    if code != 0:
        raise CommandFailed(code, stdout, stderr)
    return code, stdout, stderr


def run_cli_command(argv):
    """One ``stringcasimir`` process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", CLI_SHIM] + argv, capture_output=True,
                          text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    return _command_result(proc.returncode, proc.stdout, proc.stderr)


def main_in_process(pkg, argv):
    """``cli.main`` in this process; returns (exit code, stdout, stderr)."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _command_result(code, out.getvalue(), err.getvalue())


def wall_time(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def import_metrics(count):
    """Interpreter start and the import breakdown of ``import stringcasimir``,
    medians over fresh interpreters."""
    import tracer

    def wall(cmd):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-400:]}")
        return time.perf_counter() - start, proc.stderr

    interp = statistics.median(wall([sys.executable, "-c", "pass"])[0] for _ in range(count))
    parts = [tracer.parse_importtime(wall([sys.executable, "-X", "importtime", "-c",
                                           "import stringcasimir"])[1]) for _ in range(count)]
    med = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return {
        "import.interpreter_ms": (1000.0 * interp, "ms"),
        "import.package_ms": (med["package"], "ms"),
        "import.scipy_ms": (med["scipy"], "ms"),
        "import.numpy_ms": (med["numpy"], "ms"),
    }


def cli_layer_metrics(pkg, commands):
    """In-process ``cli.main``: the median command, and ``scan`` with one
    and with two worker processes."""
    times = []
    for argv, _ in commands:
        main_in_process(pkg, argv)
        times.append(wall_time(main_in_process, pkg, argv))
    scan = next(argv for argv, _ in commands if argv[0] == "scan")
    jobs = {}
    for n in ("1", "2"):
        jobs[n] = statistics.median(wall_time(main_in_process, pkg, scan + ["--jobs", n])
                                    for _ in range(3))
    return {
        "cli.dispatch_ms": (1000.0 * statistics.median(times), "ms"),
        "cli.scan_jobs1_ms": (1000.0 * jobs["1"], "ms"),
        "cli.scan_jobs2_ms": (1000.0 * jobs["2"], "ms"),
    }


def timed_run(calls, failure_types, args, setup, rusage_who):
    """The end-to-end metrics: untraced passes for ``--seconds``."""
    loop = Loop(calls, failure_types).run(args.seconds)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(loop.end_to_end())
    metrics["peak_rss_mb"] = (peak_rss_mb(rusage_who), "MB")
    return (loop,), metrics


def traced_run(pkg, calls, failure_types, args, commands):
    """The per-layer metrics: untraced passes for half of ``--seconds``,
    then one traced pass of the same operations, whose spans give the
    layer metrics and, against the untraced passes, ``trace.overhead_s``;
    then the import breakdown and the in-process cli timings."""
    import tracer

    loop = Loop(calls, failure_types).run(args.seconds / 2.0)
    traced = Loop(calls, failure_types)
    spans = tracer.Tracer(pkg)
    spans.install()
    try:
        traced.run(0.0)
    finally:
        spans.uninstall()
    metrics = tracer.layer_metrics(spans.spans)
    overhead = traced.pass_times[0] - statistics.median(loop.pass_times)
    metrics["trace.overhead_s"] = (overhead, "s")
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    metrics.update(import_metrics(samples(args)))
    metrics.update(cli_layer_metrics(pkg, commands))
    return (loop, traced), metrics


def run_library(args, size):
    if args.trace:
        pkg, ops, calls = setup_library(args.seed, size)
        loops, metrics = traced_run(pkg, calls, pkg.StringCasimirError, args,
                                    workloads.cli_commands(args.seed))
    else:
        setup = [probe_setup(args) for _ in range(samples(args))]
        pkg, ops, calls = setup_library(args.seed, size)
        loops, metrics = timed_run(calls, pkg.StringCasimirError, args, setup, resource.RUSAGE_SELF)
    chk = check_library(pkg, ops, loops[0].first, args.seed)
    return chk, loops, metrics


def run_cli(args):
    import refs

    commands = workloads.cli_commands(args.seed)
    if args.trace:
        pkg = import_package()
        calls = [functools.partial(main_in_process, pkg, argv) for argv, _ in commands]
        loops, metrics = traced_run(pkg, calls, CommandFailed, args, commands)
    else:
        setup = [wall_time(run_cli_command, commands[0][0]) for _ in range(samples(args))]
        calls = [functools.partial(run_cli_command, argv) for argv, _ in commands]
        loops, metrics = timed_run(calls, CommandFailed, args, setup, resource.RUSAGE_CHILDREN)
    outputs = {argv[0]: res.args if isinstance(res, CommandFailed) else res
               for (argv, _), res in zip(commands, loops[0].first)}
    chk = refs.check_cli(commands, outputs)
    return chk, loops, metrics


def report(chk, loops, metrics):
    for label in chk.failures[:20]:
        print(f"CHECK FAILED: {label}")
    mismatched = sum(loop.mismatched for loop in loops)
    if mismatched:
        print(f"CHECK FAILED: {mismatched} outputs differ between passes")
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = not chk.failures and not mismatched
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"checks {chk.count}, failed {len(chk.failures)}; operations attempted {attempted}, failed {failed}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every workload in turn, each in its own process; a table at the end."""
    table = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--quick"] if args.quick else []), capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':10s} {'metric':34s} {'value':>14s} unit")
    for name, res in table.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:10s} attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(json.dumps({"workloads": table}))
    return 0 if all(res["correct"] for res in table.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small passes and one set-up sample (the self-test)")
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stringcasimir" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'stringcasimir'}; run from a checkout", file=sys.stderr)
        return 2
    size = QUICK_SIZE if args.quick else 1.0
    if args.probe:
        setup_library(args.seed, size)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload == "cli":
        chk, loops, metrics = run_cli(args)
    else:
        chk, loops, metrics = run_library(args, size)
    report(chk, loops, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
