"""Directed densest subgraph benchmark: one workload per run, closed loop.

    python3 perfbench/run.py --workload exact-planted --seed 1 --seconds 50 --trace 0

One client calls the workload's algorithm (``core_exact`` or
``core_approx``) on the workload's graph again and again, each call starting
after the previous one returned, for ``--seconds``: at least one call, and
no call started that the previous call's time says would end past the
deadline. Every call is checked: its ρ² must equal the verified reference in
``references.json`` and |E(S,T)| recounted on the input arrays must equal the
count the result reports. The workloads are defined in ``workloads.py``.

With ``--trace 0`` the run prints the end-to-end metrics:

- ``solve_s``: mean wall seconds of one call over the run (the calls'
  summed wall divided by their number). On a shared host the call times
  mix fast and slow stretches of the machine; the mean moves with the share
  of each, where the median jumps between them, so run-to-run spread of the
  mean is lower. The median and 90th percentile are printed beside it.
- ``setup_s``: median seconds to build the input from the seeds, over at
  least ``SETUP_REPS`` repetitions and ``SETUP_SECONDS``: generate, relabel
  and, for approx-df, start a Spark session and cache the edge DataFrame.
  The first repetition pays the one-off JVM launch; the median leaves it out.
- ``peak_rss_mb``: the driver process's peak resident memory.

With ``--trace 1`` every call is traced (``tracing.py``) and the run prints
the per-layer metrics as medians over the calls, among them
``trace.coverage``, the share of a call's wall covered by layer spans, and
``trace.overhead``, the share of it spent in the span wrappers (spans entered
times the wrapper cost calibrated in the run). A call whose span counts
disagree with the algorithm's own counters counts as failed.

Before the result line it prints a human-readable summary and an environment
stamp (source hash, versions, Spark conf, seeds, sample counts). The last
line is ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
non-zero when any call failed. ``--graph-seed`` selects another graph with a
verified reference, such as the workload's held-out seed.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set up at least this often and for at least this long; a short set-up
# timed only a few times reads the machine's momentary speed
SETUP_REPS = 5
SETUP_SECONDS = 3.0
SPARK_THREADS = min(4, os.cpu_count() or 1)
# jobs/_util.py's value, so approx-df matches the table jobs
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}
SPARK_DRIVER_MEMORY = "1g"

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "flow.solve_level.calls": "count",
    "flow.build.s": "s",
    "flow.max_flow.s": "s",
    "flow.min_cut.s": "s",
    "flow.nodes": "count",
    "flow.arcs": "count",
    "ratios.candidate_in.calls": "count",
    "ratios.candidate_in.s": "s",
    "exact.solve_ratio.calls": "count",
    "exact.self_s": "s",
    "exact.ratios_solved": "count",
    "exact.ratios_skipped": "count",
    "exact.cuts": "count",
    "approx.core_approx.s": "s",
    "approx.core_probes": "count",
    "approx.x_evaluated": "count",
    "approx.x_skipped": "count",
    "xycore.local_core.calls": "count",
    "xycore.local_core.s": "s",
    "xycore.local_aux.s": "s",
    "xycore.df_core.calls": "count",
    "xycore.df_core.s": "s",
    "xycore.df_aux.s": "s",
    "xycore.df_rounds": "count",
    "xycore.df_round_s": "s",
    "spark.jobs": "count",
    "graph.collect.calls": "count",
    "graph.collect.rows": "count",
    "graph.collect.s": "s",
    "graph.generate.s": "s",
    "setup.first_call_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="vertex relabelling seed")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--graph-seed", type=int, default=None,
                   help="generator seed (default: the registry's)")
    return p.parse_args(argv)


def source_hash() -> str:
    """sha256 over src/, so a result names the code it measured without git."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout: src_sha256 names the code
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Spark:
    """A local Spark session whose JVM writes only under ``tmp`` and is
    stopped, and waited for, by ``close``."""

    def __init__(self, tmp: Path) -> None:
        # every JVM, the spark-submit launcher included, keeps out of /tmp
        os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
        os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{SPARK_THREADS}] --driver-memory {SPARK_DRIVER_MEMORY} "
            "--conf spark.driver.host=127.0.0.1 pyspark-shell"
        )
        self.session = None
        self.gateway = None

    def start(self):
        from pyspark import SparkContext
        from pyspark.sql import SparkSession

        b = SparkSession.builder.appName("perfbench")
        for k, v in SPARK_CONF.items():
            b = b.config(k, v)
        self.session = b.getOrCreate()
        self.session.sparkContext.setLogLevel("ERROR")
        self.gateway = SparkContext._gateway
        return self.session

    def stop_session(self) -> None:
        if self.session is not None:
            self.session.stop()
            self.session = None

    def close(self) -> None:
        self.stop_session()
        if self.gateway is not None:
            from pyspark import SparkContext

            proc = self.gateway.proc
            self.gateway.shutdown()
            SparkContext._gateway = None
            SparkContext._jvm = None
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self.gateway = None


def spread(xs: list[float]) -> dict[str, float]:
    """Median and 90th percentile of the call times, for the summary."""
    if len(xs) < 2:
        return {"p50": xs[0]} if xs else {}
    return {"p50": statistics.median(xs), "p90": statistics.quantiles(xs, n=10)[-1]}


def recount_error(res, e, ref: Fraction) -> str | None:
    """Why a result is wrong, or None: ρ² against the reference, and
    |E(S,T)| recounted on the input arrays."""
    import numpy as np

    if res.rho2 != ref:
        return f"rho2 {res.rho2} != reference {ref}"
    m_st = int((np.isin(e.src, res.S) & np.isin(e.dst, res.T)).sum())
    if m_st != res.edges_st:
        return f"recounted |E(S,T)| {m_st} != reported {res.edges_st}"
    return None


def layer_values(tr, res, algo: str, jobs: int) -> tuple[dict, str | None]:
    """One traced call's per-layer values, and a span/counter mismatch if any."""
    st = res.stats
    top = "exact.core_exact" if algo == "core_exact" else "approx.core_approx"
    rounds = tr.counts["xycore.df_rounds"]
    v = {
        "flow.solve_level.calls": tr.calls["flow.solve_level"],
        "flow.build.s": tr.time["flow.build"],
        "flow.max_flow.s": tr.time["flow.max_flow"],
        "flow.min_cut.s": tr.time["flow.min_cut"],
        "flow.nodes": tr.counts["flow.nodes"],
        "flow.arcs": tr.counts["flow.arcs"],
        "ratios.candidate_in.calls": tr.calls["ratios.candidate_in"],
        "ratios.candidate_in.s": tr.time["ratios.candidate_in"],
        "exact.solve_ratio.calls": tr.calls["exact.solve_ratio"],
        "exact.self_s": tr.self_time["exact.core_exact"],
        "exact.ratios_solved": st.get("ratios_solved", 0),
        "exact.ratios_skipped": st.get("ratios_skipped_empty_core", 0),
        "exact.cuts": st.get("cuts", 0),
        "approx.core_approx.s": tr.time["approx.core_approx"],
        "approx.core_probes": tr.counts["approx.core_probes"],
        "approx.x_evaluated": tr.counts["approx.x_evaluated"],
        "approx.x_skipped": tr.counts["approx.x_skipped"],
        "xycore.local_core.calls": tr.calls["xycore.local_core"],
        "xycore.local_core.s": tr.time["xycore.local_core"],
        "xycore.local_aux.s": tr.time["xycore.local_aux"],
        "xycore.df_core.calls": tr.calls["xycore.df_core"],
        "xycore.df_core.s": tr.time["xycore.df_core"],
        "xycore.df_aux.s": tr.time["xycore.df_aux"],
        "xycore.df_rounds": rounds,
        "xycore.df_round_s": tr.time["xycore.df_core"] / rounds if rounds else 0.0,
        "spark.jobs": jobs,
        "graph.collect.calls": tr.calls["graph.collect"],
        "graph.collect.rows": tr.counts["graph.collect.rows"],
        "graph.collect.s": tr.time["graph.collect"],
        "trace.coverage": 1.0 - tr.self_time[top] / tr.time[top],
    }
    # every core fixpoint is counted by the algorithm as well as by the span
    if algo == "core_exact":
        cores = (st["approx_core_probes"] + st.get("core_probes_exact", 0)
                 + len(st.get("core_sizes", [])))
        checks = [("flow.solve_level.calls", v["exact.cuts"]),
                  ("exact.solve_ratio.calls", v["exact.ratios_solved"]),
                  ("xycore.local_core.calls", cores)]
    else:
        probes = ("xycore.df_core.calls" if v["xycore.df_core.calls"]
                  else "xycore.local_core.calls")
        checks = [(probes, st["core_probes"]), ("approx.core_probes", st["core_probes"])]
    for name, want in checks:
        if v[name] != want:
            return v, f"trace {name} = {v[name]} but the algorithm counted {want}"
    return v, None


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import pyspark

    import repro.core.approx as approx
    import repro.core.exact as exact
    from repro.graph.generators import to_spark
    from tracing import Tracer
    from workloads import WORKLOADS, relabel

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    graph_seed = w.graph_seed if args.graph_seed is None else args.graph_seed
    refs = json.loads((HERE / "references.json").read_text())["rho2"][w.name]
    if str(graph_seed) not in refs:
        print(f"perfbench: no verified reference for {w.name} graph seed {graph_seed}",
              file=sys.stderr)
        return 2
    ref = Fraction(refs[str(graph_seed)])
    module = exact if w.algo == "core_exact" else approx

    # the run's scratch files (Spark, Arrow, JVM) stay inside the checkout
    bench_dir = Path.cwd() / ".bench_build"
    bench_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=bench_dir))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    spark = Spark(tmp) if w.dataframe else None
    try:
        # ---- set-up, repeated; the last repetition's input is measured
        setup_s, generate_s = [], []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS:
            if spark is not None:
                spark.stop_session()
            t0 = time.perf_counter()
            base = w.make(graph_seed)
            e = relabel(base, args.seed)
            generate_s.append(time.perf_counter() - t0)
            data = e
            if spark is not None:
                data = to_spark(spark.start(), e).cache()
                data.count()
            setup_s.append(time.perf_counter() - t0)
        first_call_s = time.perf_counter() - T_START
        span_cost = Tracer.span_cost() if args.trace else 0.0

        # ---- closed loop
        sc = spark.session.sparkContext if spark is not None else None
        solve_s, layers, errors = [], [], []
        attempted = 0
        last = 0.0  # wall of the previous call, failed or not
        deadline = time.perf_counter() + args.seconds
        # a call expected to end past the deadline is not started, so a run
        # lasts about --seconds even when one call takes most of that
        while attempted == 0 or time.perf_counter() + last < deadline:
            tr = Tracer()
            group = f"perfbench-{attempted}"
            if sc is not None:
                sc.setJobGroup(group, w.name)
            attempted += 1
            ctx = tr.patched(type(data) if spark else None) if args.trace else nullcontext()
            t_call = time.perf_counter()
            try:
                with ctx:
                    t0 = time.perf_counter()
                    res = getattr(module, w.algo)(data)
                    dt = time.perf_counter() - t0
            except Exception:  # a failed call is counted, not fatal
                errors.append(f"call {attempted}: {traceback.format_exc()}")
                continue
            finally:
                last = time.perf_counter() - t_call
            err = recount_error(res, e, ref)
            if args.trace and err is None:
                jobs = len(sc.statusTracker().getJobIdsForGroup(group)) if sc else 0
                v, err = layer_values(tr, res, w.algo, jobs)
                v["trace.overhead"] = tr.spans() * span_cost / dt
                layers.append(v)
            if err is not None:
                errors.append(f"call {attempted}: {err}")
                continue
            solve_s.append(dt)
    finally:
        if spark is not None:
            spark.close()
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(errors)
    for msg in errors:
        print(f"FAILED {msg}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = {k: statistics.median(v[k] for v in layers) for k in layers[0]} \
            if layers else {k: 0.0 for k in PER_LAYER}
        metrics["graph.generate.s"] = statistics.median(generate_s)
        metrics["setup.first_call_s"] = first_call_s
        units = PER_LAYER
    else:
        # 0.0 only when every call failed, and then correct is false
        metrics = {"solve_s": statistics.fmean(solve_s) if solve_s else 0.0,
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    print(f"workload={w.name} dataset={w.dataset} algo={w.algo} seed={args.seed} "
          f"graph_seed={graph_seed} calls={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f} "
          + " ".join(f"{k}={metrics[k]:.6g}{units[k]}" for k in units)
          + "".join(f" solve_{k}={v:.6g}s" for k, v in spread(solve_s).items()))
    stamp = {
        "workload": w.name, "seed": args.seed, "graph_seed": graph_seed,
        "reference_rho2": str(ref), "seconds": args.seconds, "trace": args.trace,
        "samples": {"solve_s": len(solve_s), "setup_s": len(setup_s)},
        "solve_s_quantiles": spread(solve_s),
        "git_sha": git_sha(), "src_sha256": source_hash(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "spark": {"master": f"local[{SPARK_THREADS}]", "driver_memory": SPARK_DRIVER_MEMORY,
                  **SPARK_CONF} if w.dataframe else None,
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
