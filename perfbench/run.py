"""Seeded benchmark of posetdim.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports posetdim from the
checkout's ``src/`` and exits with code 2, printing no result, when that
is missing.  One client in one process calls the library in a closed
loop.  The workload seed makes the inputs; the library sees only them.

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` runs the same loop untraced and then traced, and reports
per-layer calls and self time, useful-work ratios, and the tracing
overhead.  Each run writes a results file, and a traced run its spans,
under ``perfbench/out/``.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
# Set-up runs at least SETUP_MIN_REPEATS times and, when it is cheap, again
# until SETUP_MIN_SECONDS have passed (at most SETUP_MAX_REPEATS times), so
# that its median is not one short sample of a noisy host.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
CALIBRATION_LOOPS = 300_000
# Host speed drifted by up to 1.8x in spells of tens of seconds to minutes,
# on every workload alike, so the spread between runs was set by the host
# rather than by the code.  A short probe loop runs before every set-up
# repeat and every call, and once after the last.  Each end-to-end time is
# scaled to a host on which the probe takes PROBE_REF_S, by the mean of
# the probes just before and after it.  PROBE_REF_S is the probe's time on
# a quiet 2-core host, where these constants were set.  Raw wall times
# stay in the results file.
PROBE_LOOPS = 150_000
PROBE_REF_S = 0.012


def _import_library():
    """Import posetdim from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "posetdim" / "__init__.py").is_file():
        print(f"perfbench: {src / 'posetdim'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import posetdim

    where = Path(posetdim.__file__).resolve().parent
    if where != (src / "posetdim").resolve():
        print(f"perfbench: imported posetdim from {where}", file=sys.stderr)
        sys.exit(2)
    return posetdim


def enough_setups(times: list[float]) -> bool:
    return len(times) >= SETUP_MIN_REPEATS and (
        sum(times) >= SETUP_MIN_SECONDS or len(times) >= SETUP_MAX_REPEATS)


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds of a fixed pure-Python loop: how fast the host is now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of three longer probes, recorded before and after a run."""
    return statistics.median(probe(CALIBRATION_LOOPS) for _ in range(3))


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to the reference host by the probes around it."""
    return [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, t in enumerate(times)]


def source_sha256() -> str:
    """Hash of the library and benchmark sources: what 'same code' means."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "posetdim", BENCH):
        for path in sorted(base.glob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(posetdim) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "posetdim": posetdim.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


class Loop:
    """Closed loop: one call at a time, each output checked."""

    def __init__(self, call, check, inputs):
        self.call = call
        self.check = check
        self.inputs = inputs
        self.first: list = [None] * len(inputs)  # first-pass Outcome per input
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seconds: float, whole_passes: bool, tracer=None):
        """Call until `seconds` have passed and the first pass is done.

        With whole_passes the loop also stops only at a pass boundary,
        so per-call counts average over complete passes.  Returns the
        call times and the probes: one before each call, one after the last.
        """
        times, probes = [], []
        n = len(self.inputs)
        start = time.perf_counter()
        i = 0
        while True:
            done = i >= n and time.perf_counter() - start >= seconds
            if done and (not whole_passes or i % n == 0):
                break
            idx = i % n
            inp = self.inputs[idx]
            if tracer is not None:
                tracer.op += 1
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                out, error = self.call(inp), None
            except Exception as exc:  # an operation that raised is a failed one
                out, error = None, exc
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            problems = self._judge(idx, inp, out, error)
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"input {idx}: " + "; ".join(problems))
            i += 1
        probes.append(probe())
        return times, probes

    def _judge(self, idx, inp, out, error) -> list[str]:
        if error is not None:
            return ["raised " + "".join(traceback.format_exception(error))]
        outcome = self.check(inp, out)
        if outcome.problems:
            return outcome.problems
        if self.first[idx] is None:
            self.first[idx] = outcome
        elif self.first[idx].material != outcome.material:
            return ["output differs from its first pass"]
        return []

    def first_pass(self) -> list:
        return [o for o in self.first if o is not None]


def digest(setup_material: bytes, outcomes) -> str:
    h = hashlib.sha256(hashlib.sha256(setup_material).digest())
    for o in outcomes:
        h.update(hashlib.sha256(o.material).digest())
    return h.hexdigest()


def check_digest(workload: str, seed: int, sha: str, value: str) -> str | None:
    """Compare with the digest stored by an earlier run of the same code
    and seed; store it when there is none.  Returns the mismatch, if any."""
    store = OUT / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{sha[:16]}-{workload}-{seed}.txt"
    if path.is_file():
        old = path.read_text().strip()
        return None if old == value else f"digest {value} != stored {old}"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(value + "\n")
    os.replace(tmp, path)
    return None


def tail_percentile(times: list[float]):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(times) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(times, n=100)
            return {"percentile": pct, "value": cuts[pct - 1]}
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    posetdim = _import_library()
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup, call, check = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(posetdim)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "calibration_s": {"before": calibrate()}}

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        setup_problems: list[str] = []
        tracer = tracing.Tracer() if args.trace else None
        setup_times, setup_probes, materials = [], [], set()
        while True:
            setup_probes.append(probe())
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                inputs, material, problems = setup(args.seed, workdir)
            finally:
                if tracer:
                    tracer.remove()
            setup_times.append(time.perf_counter() - t0)
            materials.add(material)
            setup_problems += problems
            if tracer or enough_setups(setup_times):
                setup_probes.append(probe())
                break
        if len(materials) != 1:
            setup_problems.append("set-up repeats made different inputs")

        loop = Loop(call, check, inputs)
        if tracer is None:
            times, probes = loop.run(args.seconds, whole_passes=False)
        else:
            plain, _ = loop.run(args.seconds / 2, whole_passes=True)
            tracer.phase = "ops"
            first_pass_ops = len(inputs)

            def counted_call(inp, _call=call):
                if tracer.op >= first_pass_ops:
                    tracer.counting = False
                return _call(inp)

            loop.call = tracer.wrap("op", counted_call)
            tracer.install()
            try:
                times, probes = loop.run(args.seconds / 2, whole_passes=True,
                                         tracer=tracer)
            finally:
                tracer.remove()
    report["calibration_s"]["after"] = calibrate()

    outcomes = loop.first_pass()
    problems = setup_problems + loop.problems
    value = digest(materials.pop(), outcomes)
    if not problems:
        mismatch = check_digest(args.workload, args.seed,
                                env["source_sha256"], value)
        if mismatch:
            problems.append(mismatch)

    settled = [o.settled for o in outcomes if o.settled is not None]
    report.update({
        "digest": value,
        "inputs": len(inputs),
        "ops": len(times),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_ratio": loop.failed / max(loop.attempted, 1),
        "optimal_ratio": sum(settled) / len(settled) if settled else None,
        "setup_s_each": setup_times,
        "op_s_each": times,
        "op_tail_s": tail_percentile(times),
        "problems": problems,
    })

    report["wall"] = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
    }
    report.update({"setup_probe_s": setup_probes, "probe_s": probes})
    if tracer is None:
        scaled = host_scaled(times, probes)
        metrics = {
            "setup_s": metric(
                statistics.median(host_scaled(setup_times, setup_probes)), "s"),
            "op_p50_s": metric(statistics.median(scaled), "s"),
            "ops_per_s": metric(len(scaled) / sum(scaled), "1/s"),
            "bound_mean": metric(
                statistics.fmean(o.bound for o in outcomes) if outcomes else 0.0,
                "count"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, len(times))
        p50_plain, p50_traced = statistics.median(plain), statistics.median(times)
        metrics.update({
            "trace.ops": metric(len(times), "count"),
            "trace.untraced_op_p50_s": metric(p50_plain, "s"),
            "trace.op_p50_s": metric(p50_traced, "s"),
            "trace.overhead_s": metric(p50_traced - p50_plain, "s"),
        })
        report["untraced_missing"] = tracer.missing
        tracer.write_spans(OUT / f"{tag}-spans.jsonl")
    report["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    correct = not problems
    for why in problems:
        print(f"perfbench: {why}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(times)} ops on "
          f"{len(inputs)} inputs, digest {value}, fail_ratio "
          f"{report['fail_ratio']}, optimal_ratio {report['optimal_ratio']}, "
          f"calibration {report['calibration_s']}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
