"""The four benchmark workloads and their correctness gate.

A workload turns a seed into a fixed list of instances (input text plus
what the benchmark itself knows about the answer), runs one instance
through the package's public functions or ``hibires.cli.main``, and checks
the output.  Only ``run`` is timed; generation and checking are not.

Each workload's instance shapes (lattices up to isomorphism, and the
preorders behind the graphs) are drawn once from a fixed stream,
SHAPE_SEED; every slot fixes n and the property that drives most of the
cost (the edge count |E(G)| for the oracle workloads, the lattice size and
resolution basis size for the lattice workloads).  The --seed renames the
ground set at random, shuffles the element lines and relabels both sides
of each graph, so every seed gives other input texts for the same work.
Drawing the shapes per seed made the median instance time move by about
15% from seed to seed, which is as much as the timing noise of the
reference machine.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

# Calls go through module attributes, so the tracer's rebinding sees them.
from hibires import checks, cli, graphs, ideals, invariants, lattice, oracle, resolution

import inputs

DEFAULT_SEED = 0  # digests.json holds outputs recorded for this seed
SHAPE_SEED = 0  # the stream the instance shapes are drawn from, for every seed
DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Natural distribution (percent) of |E(G)| for closure lattices with at
# most 24 elements, by n; slots take its quantiles.
EDGE_PROFILE = {
    2: {2: 6, 3: 57, 4: 37},
    3: {3: 1, 4: 5, 5: 22, 6: 13, 7: 48, 9: 11},
    4: {5: 1.5, 6: 6, 7: 7, 8: 12, 9: 17, 10: 8, 11: 13, 12: 14, 13: 18,
        16: 3.5},
    5: {6: 1, 7: 3, 8: 4.5, 9: 7, 10: 6.5, 11: 9, 12: 7, 13: 9.5, 14: 8,
        15: 11, 16: 1.5, 17: 6.5, 18: 3, 19: 15, 21: 7, 25: 1.3},
}

# Every check run_checks(level="oracle") runs; CM instances add one more.
ORACLE_CHECKS = frozenset({
    "lemma1_distinct_meets", "lemma1_corollary", "rank_two_fact",
    "interval_monotonicity", "interval_bijection", "graph_round_trip",
    "alexander_duality", "formula_consistency", "complex_d_squared_zero",
    "complex_minimality", "strand_exactness", "basis_betti_multiplicity_one",
    "betti_formula_vs_oracle", "oracle_i_extremality_H",
    "extremal_H_vs_oracle", "depth_reg_pd_vs_oracle", "extremal_transfer",
    "last_betti_bound",
})
CM_CHECK = "cm_extremal_placement"

# The paper's Figure 1 lattice (a sublattice of B_7); the edge ring has
# graded Betti number 2 at (8, 10), i.e. beta_{7,10} = 2 for the ideal.
FIG1_ELEMENTS = (
    (), (3,), (1, 2), (3, 4), (1, 2, 3), (1, 2, 5), (1, 2, 3, 4),
    (1, 2, 3, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7),
)
FIG1_VALUE = 2


def fig1_instance():
    fam = {sum(1 << (i - 1) for i in e) for e in FIG1_ELEMENTS}
    return Instance("fig1", inputs.lattice_text(7, fam), inputs.family_facts(fam, 7))


@dataclass
class Instance:
    key: str
    text: str
    facts: object = None  # inputs.LatticeFacts, or None
    cm: bool = None
    path: str = None


def edge_slots(n, count):
    """Edge counts for count slots: quantiles of EDGE_PROFILE[n]."""
    weights = EDGE_PROFILE[n]
    total = sum(weights.values())
    out = []
    for s in range(count):
        u = (s + 0.5) / count * total
        acc = 0
        for e in sorted(weights):
            acc += weights[e]
            if acc >= u:
                out.append(e)
                break
    return out


def streams(seed, salt):
    """(shape rng, label rng): the first is the same for every seed."""
    return (inputs.make_rng(SHAPE_SEED, salt, "shapes"),
            inputs.make_rng(seed, salt, "labels"))


def closure_instances(seed, salt, counts):
    shapes, labels = streams(seed, salt)
    out = []
    for n, count in counts.items():
        for k, e in enumerate(edge_slots(n, count)):
            fam = inputs.closure_instance(shapes, n, e)
            named = inputs.relabel(fam, inputs.random_perm(labels, n))
            out.append(Instance(
                f"n{n}-{k:03d}",
                inputs.lattice_text(n, named, labels),
                inputs.family_facts(fam, n),
                inputs.is_cohen_macaulay(fam, n),
            ))
    return out


def write_files(instances, workdir, suffix):
    for inst in instances:
        path = Path(workdir) / f"{inst.key}{suffix}"
        path.write_text(inst.text)
        inst.path = str(path)
    return instances


def run_analyze(path):
    """hibires analyze on one file; returns (exit code, report sans path)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", "--input", path, "--no-timestamp"])
    if rc != 0:
        return rc, err.getvalue().strip()
    report = json.loads(out.getvalue())
    report.pop("input", None)
    return rc, report


def check_report(inst, output):
    """Exit code 0 and the lattice facts the benchmark knows independently."""
    rc, report = output["rc"], output["report"]
    if rc != 0:
        return f"exit code {rc}: {report}"
    facts = inst.facts
    if report["lattice_size"] != facts.size:
        return f"lattice_size {report['lattice_size']} != {facts.size}"
    if report["reg"] != facts.max_neighbors:
        return f"reg {report['reg']} != max |N(p)| {facts.max_neighbors}"
    if report["resolution_level_ranks"] != facts.level_ranks:
        return "resolution level ranks differ from sum_p C(|N(p)|, i)"
    return None


class Workload:
    """A workload provides prepare(seed, workdir) -> instances, run(inst)
    -> output (the timed call into the package) and check(inst, output)
    -> problem or None.  Outputs of digested workloads are also compared
    with digests.json on the default seed."""

    name = None
    why = None
    digested = True


class VerifyQ(Workload):
    name = "verify-q"
    why = ("run_checks(level='oracle') over Q on closure lattices n=2..5: "
           "the full upper-Koszul oracle and sparse Q elimination")
    digested = False
    counts = {2: 20, 3: 20, 4: 60, 5: 45}

    def prepare(self, seed, workdir):
        return closure_instances(seed, self.name, self.counts)

    def run(self, inst):
        L = lattice.parse_lattice_text(inst.text)
        report = checks.run_checks(L, level="oracle", field="Q")
        return {
            "ok": report.ok,
            "checks": sorted(name for name, _, _ in report.results),
            "failed": sorted(name for name, ok, _ in report.results if not ok),
        }

    def check(self, inst, output):
        if not output["ok"]:
            return f"failed checks {output['failed']}"
        expected = ORACLE_CHECKS | ({CM_CHECK} if inst.cm else set())
        names = output["checks"]
        if len(names) != len(set(names)) or set(names) != expected:
            missing = sorted(expected - set(names))
            extra = sorted(set(names) - expected)
            return f"check set differs: missing {missing}, extra {extra}"
        return None


class TightnessGF2(Workload):
    name = "tightness-gf2"
    why = ("t >= |B_G| by the spot-value oracle over GF(2) on closure "
           "lattices n=2..5, plus Figure 1's beta_{7,10} = 2")
    counts = {2: 10, 3: 10, 4: 30, 5: 100}

    def prepare(self, seed, workdir):
        out = closure_instances(seed, self.name, self.counts)
        out.append(fig1_instance())
        return out

    def run(self, inst):
        L = lattice.parse_lattice_text(inst.text)
        I = ideals.edge_ideal(graphs.graph_from_lattice(L))
        if inst.key == "fig1":
            value = oracle.graded_betti_in_degree(
                I, 7, 10, field=2, closure_cap=200000)
            return {"fig1": value}
        pd, _ = invariants.pd_and_reg_H(L)
        t = oracle.total_betti_in_degree(I, pd - 1, field=2)
        return {"pd": pd, "t": t, "bound": invariants.last_betti_lower_bound(L)}

    def check(self, inst, output):
        if inst.key == "fig1":
            if output["fig1"] != FIG1_VALUE:
                return f"Figure 1 beta_(7,10) = {output['fig1']}, expected 2"
            return None
        if not 1 <= output["bound"] <= output["t"]:
            return f"t = {output['t']} below the bound {output['bound']}"
        return None


class AnalyzeLarge(Workload):
    name = "analyze-large"
    why = ("hibires analyze plus the resolution verifiers on B_6..B_9 and "
           "distributive lattices n=13..16: lattice, resolution, invariants")
    per_n = 5
    size_range = (190, 230)
    basis_range = (1800, 2500)

    def prepare(self, seed, workdir):
        shapes, labels = streams(seed, self.name)
        out = []
        for k in range(6, 10):
            out.append(Instance(
                f"B{k}", inputs.lattice_text(k, range(1 << k), labels),
                inputs.boolean_facts(k)))
        for n in range(13, 17):
            for j in range(self.per_n):
                _, fam, facts = inputs.preorder_instance(
                    shapes, n, self.size_range, self.basis_range)
                named = inputs.relabel(fam, inputs.random_perm(labels, n))
                out.append(Instance(
                    f"n{n}-{j}", inputs.lattice_text(n, named, labels), facts))
        return write_files(out, workdir, ".lat")

    def run(self, inst):
        rc, report = run_analyze(inst.path)
        L = lattice.parse_lattice_text(Path(inst.path).read_text())
        C = resolution.build_resolution(L)
        return {
            "rc": rc,
            "report": report,
            "d_squared_zero": bool(resolution.verify_complex(C)),
            "minimal": bool(resolution.verify_minimality(C)),
        }

    def check(self, inst, output):
        if not output["d_squared_zero"]:
            return "d^2 != 0"
        if not output["minimal"]:
            return "resolution not minimal"
        return check_report(inst, output)


class GraphIngest(Workload):
    name = "graph-ingest"
    why = ("hibires analyze on relabelled graphs of random preorders "
           "n=10..16: cover enumeration for n<=12, implication path above")
    # n -> (instances, lattice size range, resolution basis size range)
    profile = {
        10: (10, (100, 140), None),
        11: (10, (60, 80), None),
        12: (2, (40, 60), None),
        13: (4, (200, 260), (1800, 2800)),
        14: (4, (200, 260), (1800, 2800)),
        15: (4, (200, 260), (1800, 2800)),
        16: (4, (200, 260), (1800, 2800)),
    }

    def prepare(self, seed, workdir):
        shapes, labels = streams(seed, self.name)
        out = []
        for n, (count, size_range, basis_range) in self.profile.items():
            for j in range(count):
                P, _, facts = inputs.preorder_instance(
                    shapes, n, size_range, basis_range)
                out.append(Instance(
                    f"n{n}-{j}", inputs.graph_text(P, labels), facts))
        return write_files(out, workdir, ".graph")

    def run(self, inst):
        rc, report = run_analyze(inst.path)
        return {"rc": rc, "report": report}

    def check(self, inst, output):
        return check_report(inst, output)


WORKLOADS = {w.name: w for w in (VerifyQ(), TightnessGF2(), AnalyzeLarge(), GraphIngest())}


def digest(output):
    """Short sha256 of one output's canonical JSON."""
    blob = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def recorded_digests(workload, seed):
    """Per-instance digests recorded for this seed, or an empty dict."""
    if not workload.digested or not DIGESTS_FILE.is_file():
        return {}
    table = json.loads(DIGESTS_FILE.read_text())
    return table.get(str(seed), {}).get(workload.name, {})


def gate(workload, inst, output, digests):
    """The first problem with one instance's output, or None.

    The workload's own checks hold for every seed; where a digest is
    recorded for the instance, the output must also match it exactly.
    """
    problem = workload.check(inst, output)
    if problem:
        return problem
    expected = digests.get(inst.key)
    if expected is not None and digest(output) != expected:
        return f"output digest {digest(output)} != recorded {expected}"
    return None
