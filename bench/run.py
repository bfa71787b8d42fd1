"""hibires benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root):

    python3 bench/run.py --workload verify-q --seed 0 --seconds 20 --trace 0

With --trace 0 the run goes through the workload's fixed instance list
once, then again in new shuffled orders until --seconds are used up (the
last pass may be partial), samples set-up time (cold ``import hibires`` in
a fresh interpreter) at points spread over the first pass, and reports the
end-to-end metrics from each instance's mean time.  With --trace 1 it runs each instance once untraced and
once traced and reports per-layer calls, self times and counters, plus the
tracing overhead; the spans go to .bench_out/ under the repository root.

Every instance's output is checked; the last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.  The
package is imported from src/ next to this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hibires; "
    "print(time.perf_counter() - t)"
)
TAIL_BEYOND = 10  # instances that must lie above the tail percentile


@dataclass
class Pass:
    times: dict = field(default_factory=dict)  # instance index -> seconds
    failures: list = field(default_factory=list)  # (instance key, problem)

    @property
    def wall(self):
        return sum(self.times.values())


def measure_setup():
    """Seconds of one cold ``import hibires`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def run_pass(workload, instances, digests, rng, setup=None, tracer=None,
             deadline=None, estimate=None):
    """Run every instance once, in an order shuffled by rng; only the
    workload's run() is timed.  times[k] belongs to instances[k].

    With a deadline, an instance whose estimated time (from estimate,
    a dict like times) would end past it is left out of the pass.

    Shuffling spreads each kind of instance over the whole pass, so a
    stretch of seconds in which the machine runs slow does not land on
    one group of instances and move its percentile.  For the same reason,
    when a setup list is given, SETUP_REPEATS set-up samples are taken at
    evenly spaced points of the pass, outside the timed regions.

    With a tracer, each instance runs untraced and traced back to back,
    in alternating order, so the two timings see the same machine state;
    the traced times go to a second Pass.
    """
    order = list(range(len(instances)))
    rng.shuffle(order)
    sample_at = set()
    if setup is not None:
        sample_at = {j * len(order) // SETUP_REPEATS for j in range(SETUP_REPEATS)}
    plain = Pass()
    traced = Pass()
    for j, k in enumerate(order):
        if j in sample_at:
            setup.append(measure_setup())
        if deadline is not None and time.perf_counter() + estimate[k] > deadline:
            continue
        if tracer is None:
            run_one(workload, instances[k], k, digests, plain)
            continue
        for into in ((plain, traced) if j % 2 == 0 else (traced, plain)):
            if into is traced:
                tracer.instance = k
                tracer.install()
            try:
                run_one(workload, instances[k], k, digests, into)
            finally:
                if into is traced:
                    tracer.uninstall()
                    tracer.instance = None
    return plain if tracer is None else (plain, traced)


def run_one(workload, inst, k, digests, into):
    """Time one instance into into.times[k]; record a raise or a gate
    failure in into.failures."""
    from workloads import gate

    t0 = time.perf_counter()
    try:
        output = workload.run(inst)
    except Exception as exc:  # an instance that raises counts as failed
        into.times[k] = time.perf_counter() - t0
        into.failures.append((inst.key, f"{type(exc).__name__}: {exc}"))
        return
    into.times[k] = time.perf_counter() - t0
    problem = gate(workload, inst, output, digests)
    if problem:
        into.failures.append((inst.key, problem))


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest integer percentile q (50..99) with at least `beyond` values
    above its nearest-rank value; (q, value) or None for too few values."""
    ordered = sorted(values)
    count = len(ordered)
    for q in range(99, 49, -1):
        rank = -(-q * count // 100)  # ceil(q * count / 100), 1-based
        if count - rank >= beyond:
            return q, ordered[rank - 1]
    return None


def interquartile_mean(values):
    """Mean of the middle half of the sorted values.

    On a machine whose speed drifts between phases, a single order
    statistic such as the median jumps between the fast and the slow
    group of times; the mean over the middle half moves smoothly and
    still ignores the cheapest and the most expensive quarter.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def distribution(values):
    ordered = sorted(values)
    if len(ordered) < 2:
        return {"min": ordered[0], "max": ordered[0]} if ordered else {}
    q1, q2, q3 = statistics.quantiles(ordered, n=4)
    return {"min": ordered[0], "p25": q1, "median": q2, "p75": q3, "max": ordered[-1]}


def histogram(values):
    out = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def input_properties(instances, tracer=None):
    """n, |L| and max |N(p)| from the generators; lcm-closure size and face
    counts per instance from the traced pass, when there is one."""
    facts = [inst.facts for inst in instances]
    props = {
        "instances": len(instances),
        "n": histogram([f.n for f in facts]),
        "lattice_size": distribution([f.size for f in facts]),
        "max_neighbors": histogram([f.max_neighbors for f in facts]),
        "basis_size": distribution([f.basis_size for f in facts]),
    }
    if tracer is not None:
        per = [tracer.per_instance.get(k, {}) for k in range(len(instances))]
        props["lcm_closure_size"] = distribution(
            [c.get("ideals.lcm_closure.size", 0) for c in per])
        props["oracle_faces"] = distribution([c.get("oracle.faces", 0) for c in per])
    return props


def timed_run(workload, instances, digests, seconds, rng):
    """One full pass, then passes that fill the rest of the window; each
    instance's time is the mean of its timings, spread over the window.

    Means, not medians: the reference machine drifts between fast and slow
    phases lasting seconds, and a mean over timings taken in several
    phases moves less from run to run than any single one of them.
    """
    setup = []
    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, instances, digests, rng, setup=setup)]
    first = passes[0].times
    shortest = min(first.values())
    while time.perf_counter() + shortest <= deadline:
        passes.append(run_pass(workload, instances, digests, rng,
                               deadline=deadline, estimate=first))
    per_instance = [
        statistics.fmean(p.times[k] for p in passes if k in p.times)
        for k in range(len(instances))
    ]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_instance), "s"),
        "inst_iqm_ms": (interquartile_mean(per_instance) * 1000, "ms"),
    }
    tail = tail_percentile(per_instance)
    counts = [sum(k in p.times for p in passes) for k in range(len(instances))]
    notes = [f"{len(instances)} instances timed {min(counts)} to {max(counts)} "
             f"times each over {len(passes)} passes"]
    if tail is not None:
        q, value = tail
        metrics["inst_tail_ms"] = (value * 1000, "ms")
        notes.append(f"inst_tail_ms is p{q} over {len(instances)} instances")
    else:
        notes.append(f"inst_tail_ms omitted: {len(instances)} instances are too few")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return passes, metrics, notes, input_properties(instances)


def traced_run(workload, instances, digests, seed, rng):
    from tracer import Tracer

    tracer = Tracer()
    baseline, traced = run_pass(workload, instances, digests, rng, tracer=tracer)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced.wall - baseline.wall, "s")
    out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.write(out, {"workload": workload.name, "seed": seed,
                       "instances": [inst.key for inst in instances]})
    notes = [
        f"untraced wall_s {baseline.wall:.4f}, traced wall_s {traced.wall:.4f}",
        f"spans written to {out.relative_to(ROOT)}",
    ]
    notes += [f"ABSENT {name}" for name in tracer.absent]
    return [baseline, traced], metrics, notes, input_properties(instances, tracer)


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not (SRC / "hibires" / "__init__.py").is_file():
        print(f"bench: package source {SRC / 'hibires'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hibires

    if Path(hibires.__file__).resolve().parent != (SRC / "hibires").resolve():
        print(f"bench: imported hibires from {hibires.__file__}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from workloads import WORKLOADS, recorded_digests

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        instances = workload.prepare(args.seed, workdir)
        digests = recorded_digests(workload, args.seed)
        rng = random.Random(f"order-{args.seed}")
        if args.trace:
            passes, metrics, notes, props = traced_run(
                workload, instances, digests, args.seed, rng)
        else:
            passes, metrics, notes, props = timed_run(
                workload, instances, digests, args.seconds, rng)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for note in notes:
        print(note)
    print(f"fail_share {failed / attempted:.6f} ({failed} of {attempted} attempts)"
          + (f"; digests checked for {len(digests)} instances" if digests else ""))
    for key, problem in {k: p for ps in passes for k, p in ps.failures}.items():
        print(f"FAIL {key}: {problem}")
    print("properties " + json.dumps(props, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
