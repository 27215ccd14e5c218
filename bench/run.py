#!/usr/bin/env python3
"""Seeded benchmark of the cwgraphs package.

Run from the root of a checkout:

    python3 bench/run.py --workload report_ladder --seed 1 --seconds 20 --trace 0

Workloads (inputs in workloads.py, reasons in METRICS.md; BENCHMARK.json
bounds all but certify_kmn):

    report_ladder    full_report in process on a ladder of random_cw graphs
    classify_stream  classify on large Cameron-Walker graphs and controls
    certify_kmn      decompose, cw_shelling, independence_complex,
                     verify_shelling, is_vertex_decomposable
    cli_analyze      `cwgraphs analyze` as a subprocess on edge-list files

``--trace 0`` times one workload in a closed loop: one caller, one call
at a time, one subprocess at a time for the command line.  It runs whole
passes over the inputs, as many as fit in ``--seconds`` (at least one),
and reports the end-to-end metrics: throughput is correct results over
the wall time of all passes, a latency an order statistic over inputs
of each input's median call.  The CPU speed of a shared host flips
between a fast and a slow state, about 1.6x apart, every second or so;
medians average the flips, where the fastest call reads whichever state
the run happened to catch.  ``--trace 1`` instead records spans
around the package's public functions during one pass over every third
input of every workload, and reports the per-layer metrics, each on the
workload METRICS.md assigns it; ``--workload`` then names the workload
whose tracing overhead is measured.

Every output is checked against a reference after the timed region;
wrong answers, exceptions and calls over ``CALL_LIMIT_S`` count as
failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines above repeat the
metrics for people.  Details (input fingerprint, tail percentile, spans)
are written under bench/out/.  Without the package source in src/ the
run exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A call that runs longer than this is recorded as timed out and failed.
CALL_LIMIT_S = 30.0
# setup_s is the median of this many set-ups (import plus inputs).
SETUP_REPEATS = 15
# The traced run takes every TRACE_STRIDE-th input of each workload; an
# odd stride alternates the Cohen-Macaulay and mixed graphs of the ladder.
TRACE_STRIDE = 3
# Repeats of each subprocess probe of the traced run.
PROBE_REPEATS = 5


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that ran past CALL_LIMIT_S.

    A BaseException, so no ``except Exception`` in the package swallows it.
    """


def _on_alarm(signum, frame):
    raise CallTimeout


def timed_call(fn, *args):
    """(seconds, status, output); status is ok, error or timeout.

    The limit is a real-time interval timer, so it starts no thread.
    """
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except CallTimeout:
        out, status = None, "timeout"
    except Exception as exc:  # any failure of the program is a failed operation
        out, status = repr(exc), "error"
    return perf_counter() - start, status, out


def fresh_import():
    """Import the package from src/ anew, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "cwgraphs" or k.startswith("cwgraphs.")]:
        del sys.modules[key]
    cw = importlib.import_module("cwgraphs")
    importlib.import_module("cwgraphs.cli")
    if Path(cw.__file__).resolve().parent != (SRC / "cwgraphs").resolve():
        raise SystemExit(f"bench: imported cwgraphs from {cw.__file__}, not from {SRC}")
    return cw


# -- workloads ----------------------------------------------------------------


def certify(cw, case):
    g = case.graph
    dec = cw.decompose(g)
    order = cw.cw_shelling(dec)
    cx = cw.independence_complex(g)
    ok, _ = cw.verify_shelling(cx, order.facets)
    vd, _ = cw.is_vertex_decomposable(cx)
    return ok, vd, len(order.facets), len(cx.facets)


def clear_vd_cache(cw):
    """Start a pass from the empty VD decision cache of a fresh process,
    so later passes do not replay what the first one cached."""
    cache = getattr(cw.complexes, "_VD_CACHE", None)
    if cache is not None:
        cache.clear()


def child_env():
    """The environment of a child interpreter that imports src/cwgraphs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cli_subprocess(cw, case):
    """`cwgraphs analyze` in a child; the interval timer of timed_call
    bounds it, and subprocess.run kills and reaps the child on the way out."""
    proc = subprocess.run(
        [sys.executable, "-m", "cwgraphs.cli", "analyze", str(case.path)],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
    )
    return proc.returncode, proc.stdout


def cli_in_process(cw, case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cw.cli.main(["analyze", str(case.path)])
    return code, buf.getvalue()


@dataclass(frozen=True)
class Spec:
    """One workload: how it makes its inputs, the call it times and the
    check of that call's output."""

    generate: object  # (seed, cw) -> list of workloads.Case
    call: object  # (cw, case) -> output
    check: object  # (cw, case, output) -> None, or why the output is wrong
    begin_pass: object = None  # (cw) -> None, run before each pass
    # The call runs a child process on an edge-list file written at
    # set-up; peak RSS is then the children's, and the traced run, which
    # cannot trace into a child, makes traced_call instead.
    child: bool = False
    traced_call: object = None


WORKLOADS = {
    "report_ladder": Spec(workloads.report_ladder, lambda cw, case: cw.full_report(case.graph),
                          reference.check_report),
    "classify_stream": Spec(workloads.classify_stream, lambda cw, case: cw.classify(case.graph),
                            reference.check_tag),
    "certify_kmn": Spec(workloads.certify_kmn, certify, reference.check_certificate,
                        begin_pass=clear_vd_cache),
    "cli_analyze": Spec(workloads.cli_analyze, cli_subprocess, reference.check_cli,
                        child=True, traced_call=cli_in_process),
}


class Workload:
    """One workload's inputs, bound to an import of the package."""

    def __init__(self, name, seed, cw, work_dir):
        self.name, self.spec = name, WORKLOADS[name]
        self.cases = self.spec.generate(seed, cw)
        if self.spec.child:
            work_dir.mkdir(parents=True, exist_ok=True)
            for case in self.cases:
                case.path = work_dir / f"{case.id}.edges"
                case.path.write_text(case.text)
        self.load(cw)

    def load(self, cw):
        """The program's part of set-up: build each Cameron-Walker input
        from its accepted random_cw draw and parse every edge list."""
        self.cw = cw
        for case in self.cases:
            if case.draw is not None:
                cw.build_cw(cw.random_cw(*case.draw))
            case.graph = cw.parse_edge_list(case.text)

    def begin_pass(self):
        if self.spec.begin_pass is not None:
            self.spec.begin_pass(self.cw)

    def call(self, case, in_process=False):
        fn = self.spec.traced_call if in_process and self.spec.child else self.spec.call
        return timed_call(fn, self.cw, case)

    def verdicts(self, results):
        """Reason for each wrong output (None when right), checking each
        distinct output of a case once."""
        seen, out = {}, []
        for case, status, value in results:
            if status != "ok":
                out.append(status)
                continue
            key = (case.id, value.to_json() if hasattr(value, "to_json") else value)
            if key not in seen:
                seen[key] = self.spec.check(self.cw, case, value)
            out.append(seen[key])
        return out


def tally(wl, results):
    verdicts = wl.verdicts(results)
    wrong = [v for v in verdicts if v not in (None, "timeout", "error")]
    errors = [r[2] for r, v in zip(results, verdicts) if v == "error"]
    failed = sum(v is not None for v in verdicts)
    for reason in (wrong + errors)[:5]:
        print(f"bench: {wl.name}: {reason}", file=sys.stderr)
    if "timeout" in verdicts:
        print(f"bench: {wl.name}: {verdicts.count('timeout')} calls over {CALL_LIMIT_S} s",
              file=sys.stderr)
    return {
        "attempted": len(results),
        "failed": failed,
        "correct": failed == 0,
        "ok": [v is None for v in verdicts],
    }


# -- end-to-end run -----------------------------------------------------------


def setup(name, seed, work_dir):
    """Returns the Workload and the median time of the program's set-up:
    a fresh import of the package plus Workload.load.  The seeded search
    for inputs of the wanted shapes runs once, untimed, before."""
    wl = Workload(name, seed, fresh_import(), work_dir)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl.load(fresh_import())
        times.append(perf_counter() - start)
    return wl, statistics.median(times)


def end_to_end(name, seed, seconds, work_dir):
    wl, setup_s = setup(name, seed, work_dir)
    results, times, walls = [], [], []
    while not walls or sum(walls) + statistics.mean(walls) <= seconds:
        wl.begin_pass()
        start = perf_counter()
        for case in wl.cases:
            dt, status, value = wl.call(case)
            results.append((case, status, value))
            times.append(dt)
        walls.append(perf_counter() - start)
    who = resource.RUSAGE_CHILDREN if wl.spec.child else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    t = tally(wl, results)
    samples = {case.id: [] for case in wl.cases}
    for (case, _, _), dt, ok in zip(results, times, t["ok"]):
        samples[case.id].append(dt if ok else None)
    # An input with a failed call in any pass counts as missing every
    # latency limit; otherwise its latency is the median of its calls.
    per_input = sorted(
        (CALL_LIMIT_S if None in s else statistics.median(s)) * 1000 for s in samples.values())
    k = len(per_input)
    beyond = min(10, k - 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_graphs_per_s": (sum(t["ok"]) / sum(walls), "graphs/s"),
        "latency_p50_ms": (statistics.median(per_input), "ms"),
        "latency_tail_ms": (per_input[k - 1 - beyond], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "failed_ratio": t["failed"] / t["attempted"],
        "latency_tail": {
            "percentile": 100 * (k - beyond) / k,
            "samples": k,
            "beyond": beyond,
            "sample": "median of one input's calls over the passes, the limit if one failed",
        },
        "fingerprint": workloads.fingerprint(wl.cases),
    }
    return t, metrics, details


# -- traced run ---------------------------------------------------------------


def _probe_ms(code):
    """Median over repeats of the time a fresh interpreter running
    ``code`` prints, or of its wall time when it prints nothing."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=CALL_LIMIT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"bench: probe {code!r} failed: {proc.stderr}")
        times.append(float(proc.stdout) if proc.stdout.strip() else elapsed)
    return statistics.median(times) * 1000


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cwgraphs.cli; "
    "print(time.perf_counter() - t)"
)


def recompute_ratio(cw, cases):
    """full_report time over one call each to the pieces it is made of."""
    pieces = (
        cw.matching_number,
        cw.induced_matching_number,
        cw.decompose,
        cw.independence_complex,
        cw.is_vertex_decomposable_graph,
        cw.independence_domination_number,
    )
    whole = parts = 0.0
    for case in cases:
        whole += timed_call(cw.full_report, case.graph)[0]
        parts += sum(timed_call(fn, case.graph)[0] for fn in pieces)
    return whole / parts


def traced(name, seed, work_dir):
    cw = fresh_import()
    wls = {w: Workload(w, seed, cw, work_dir) for w in WORKLOADS}
    subsets = {w: wl.cases[::TRACE_STRIDE] for w, wl in wls.items()}
    interpreter_ms = _probe_ms("pass")
    import_ms = _probe_ms(IMPORT_PROBE)

    def one_pass(w):
        wls[w].begin_pass()
        results = []
        start = perf_counter()
        for case in subsets[w]:
            tracer.input_id = f"{w}:{case.id}"
            _, status, value = wls[w].call(case, in_process=True)
            results.append((case, status, value))
        return perf_counter() - start, results

    tracer = Tracer()
    untraced_s = [one_pass(name)[0]]
    tracer.install()
    walls, results = {}, []
    try:
        for w in WORKLOADS:
            tracer.group = w
            walls[w], res = one_pass(w)
            results.append((wls[w], res))
    finally:
        tracer.uninstall()
    # One untraced pass on each side of the traced ones, the faster kept,
    # so a slow stretch of the host does not read as overhead.
    untraced_s.append(one_pass(name)[0])
    ratio = recompute_ratio(cw, subsets["report_ladder"])

    tallies = [tally(wl, res) for wl, res in results]
    t = {
        "attempted": sum(x["attempted"] for x in tallies),
        "failed": sum(x["failed"] for x in tallies),
        "correct": all(x["correct"] for x in tallies),
    }
    busy = tracer.busy_ms
    metrics = {
        "graph.parse_ms": (busy("graph.parse_edge_list", "cli_analyze"), "ms"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (busy("cli.main", "cli_analyze"), "ms"),
        "structure.decompose_ms": (busy("structure.decompose", "certify_kmn"), "ms"),
        "structure.classify_ms": (busy("structure.classify", "classify_stream"), "ms"),
        "structure.cw_share": (
            tracer.count("classify_stream", "structure.cw_results")
            / max(1, tracer.calls("structure.classify", "classify_stream")), "ratio"),
        "matchings.m_ms": (busy("matchings.matching_number", "classify_stream"), "ms"),
        "matchings.im_ms": (busy("matchings.induced_matching_number", "classify_stream"), "ms"),
        "complexes.independence_complex_ms": (
            busy("complexes.independence_complex", "report_ladder"), "ms"),
        "complexes.facets": (tracer.count("report_ladder", "complexes.facets"), "count"),
        "complexes.vd_graph_ms": (busy("complexes.is_vertex_decomposable_graph", "report_ladder"), "ms"),
        "complexes.vd_complex_ms": (busy("complexes.is_vertex_decomposable", "certify_kmn"), "ms"),
        "complexes.cw_shelling_ms": (busy("complexes.cw_shelling", "certify_kmn"), "ms"),
        "complexes.verify_shelling_ms": (busy("complexes.verify_shelling", "certify_kmn"), "ms"),
        "complexes.shelling_facets": (tracer.count("certify_kmn", "complexes.shelling_facets"), "count"),
        "invariants.full_report_ms": (busy("invariants.full_report", "report_ladder"), "ms"),
        "invariants.i_g_ms": (busy("invariants.independence_domination_number", "report_ladder"), "ms"),
        "invariants.covers_ms": (busy("invariants.minimal_vertex_covers", "report_ladder"), "ms"),
        "invariants.cm_type_ms": (busy("invariants.cm_type_cw", "report_ladder"), "ms"),
        "invariants.partial_reports": (tracer.count("report_ladder", "invariants.partial_reports"), "count"),
        "invariants.recompute_ratio": (ratio, "ratio"),
    }
    for layer, ms in tracer.self_ms_by_layer().items():
        metrics[f"{layer}.self_ms"] = (ms, "ms")
    metrics["trace.overhead_ms"] = ((walls[name] - min(untraced_s)) * 1000, "ms")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "inputs_per_workload": {w: len(s) for w, s in subsets.items()},
        "traced_wall_s": walls,
        "untraced_wall_s": {name: untraced_s},
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fingerprints": {w: workloads.fingerprint(wl.cases) for w, wl in wls.items()},
    }
    return t, metrics, details


# -- entry point ----------------------------------------------------------------


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result line as a dict plus details."""
    work_dir = OUT / f"inputs-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if trace:
            t, metrics, details = traced(workload, seed, work_dir)
        else:
            t, metrics, details = end_to_end(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": t["correct"],
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cwgraphs" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/cwgraphs; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, details = run(args.workload, args.seed, args.seconds, args.trace)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "details": details}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    if not args.trace:
        fp = details["fingerprint"]
        tail = details["latency_tail"]
        print(f"  inputs {fp['cases']}  sha256 {fp['sha256'][:16]}  |V| {fp['vertices']}"
              f"  |E| {fp['edges']}  cw_share {fp['cw_share']:.3f}")
        print(f"  passes {details['passes']}  failed_ratio {details['failed_ratio']} ratio"
              f"  tail = p{tail['percentile']:.1f} of {tail['samples']} inputs")
    for key, m in result["metrics"].items():
        print(f"  {key:36} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
