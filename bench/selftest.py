"""Self-tests of the benchmark: the gate rejects wrong outputs and digests,
the tracer covers every layer, and a run without the package fails.

Run from the repository root (takes a few seconds):

    python3 bench/selftest.py

The file name keeps it out of the package's pytest collection.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def small_closure(n=3, edges=5, seed=0):
    rng = inputs.make_rng(seed, "selftest")
    fam = inputs.closure_instance(rng, n, edges)
    return wl.Instance(
        "small", inputs.lattice_text(n, fam),
        inputs.family_facts(fam, n), inputs.is_cohen_macaulay(fam, n),
    )


def small_graph(workdir):
    rng = inputs.make_rng(0, "selftest-graph")
    P, _, facts = inputs.preorder_instance(rng, 5, (6, 12))
    inst = wl.Instance("g5", inputs.graph_text(P, rng), facts)
    return wl.write_files([inst], workdir, ".graph")[0]


def boolean(workdir, k=3):
    inst = wl.Instance("B3", inputs.lattice_text(k, range(1 << k)),
                       inputs.boolean_facts(k))
    return wl.write_files([inst], workdir, ".lat")[0]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT)
        self.workdir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def test_verify_q_rejects_failed_or_skipped_checks(self):
        w = wl.WORKLOADS["verify-q"]
        inst = small_closure()
        out = w.run(inst)
        self.assertIsNone(wl.gate(w, inst, out, {}))
        skipped = dict(out, checks=[c for c in out["checks"] if c != "strand_exactness"])
        self.assertIn("missing", wl.gate(w, inst, skipped, {}))
        failed = dict(out, ok=False, failed=["rank_two_fact"])
        self.assertIsNotNone(wl.gate(w, inst, failed, {}))
        flipped = wl.Instance(inst.key, inst.text, inst.facts, not inst.cm)
        self.assertIsNotNone(wl.gate(w, flipped, out, {}))

    def test_tightness_rejects_low_t_and_wrong_fig1(self):
        w = wl.WORKLOADS["tightness-gf2"]
        inst = small_closure(n=4, edges=9)
        out = w.run(inst)
        self.assertIsNone(wl.gate(w, inst, out, {}))
        low = dict(out, t=out["bound"] - 1)
        self.assertIsNotNone(wl.gate(w, inst, low, {}))
        fig1 = wl.fig1_instance()
        self.assertIsNone(wl.gate(w, fig1, {"fig1": 2}, {}))
        self.assertIsNotNone(wl.gate(w, fig1, {"fig1": 3}, {}))

    def test_analyze_rejects_tampered_report(self):
        for name, inst in (("analyze-large", boolean(self.workdir)),
                           ("graph-ingest", small_graph(self.workdir))):
            w = wl.WORKLOADS[name]
            out = w.run(inst)
            self.assertIsNone(wl.gate(w, inst, out, {}), name)
            for key, delta in (("lattice_size", 1), ("reg", 1)):
                bad = json.loads(json.dumps(out))
                bad["report"][key] += delta
                self.assertIsNotNone(wl.gate(w, inst, bad, {}), (name, key))
            bad = json.loads(json.dumps(out))
            bad["report"]["resolution_level_ranks"][-1] += 1
            self.assertIsNotNone(wl.gate(w, inst, bad, {}), name)
            self.assertIsNotNone(wl.gate(w, inst, dict(out, rc=1), {}), name)

    def test_digest_mismatch_fails(self):
        w = wl.WORKLOADS["analyze-large"]
        inst = boolean(self.workdir)
        out = w.run(inst)
        good = {inst.key: wl.digest(out)}
        self.assertIsNone(wl.gate(w, inst, out, good))
        self.assertIn("digest", wl.gate(w, inst, out, {inst.key: "0" * 16}))
        # an output that passes the structural checks but differs elsewhere
        bad = json.loads(json.dumps(out))
        bad["report"]["depth"] += 1
        self.assertIsNone(wl.gate(w, inst, bad, {}))
        self.assertIn("digest", wl.gate(w, inst, bad, good))

    def test_recorded_digests_cover_default_seed(self):
        for w in wl.WORKLOADS.values():
            digests = wl.recorded_digests(w, wl.DEFAULT_SEED)
            if not w.digested:
                self.assertEqual(digests, {})
                continue
            keys = [i.key for i in w.prepare(wl.DEFAULT_SEED, self.workdir)]
            self.assertEqual(sorted(digests), sorted(keys), w.name)


class InputsTest(unittest.TestCase):
    def test_seeded_and_profiled(self):
        w = wl.WORKLOADS["verify-q"]
        a = [i.text for i in w.prepare(3, None)]
        b = [i.text for i in w.prepare(3, None)]
        c = [i.text for i in w.prepare(4, None)]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(len(a), sum(w.counts.values()))

    def test_seed_relabels_fixed_shapes(self):
        for w in wl.WORKLOADS.values():
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as d:
                a = w.prepare(3, d)
                b = w.prepare(4, d)
            self.assertEqual([i.facts for i in a], [i.facts for i in b], w.name)
            self.assertNotEqual([i.text for i in a], [i.text for i in b], w.name)

    def test_edge_slots_follow_profile(self):
        slots = wl.edge_slots(5, 60)
        self.assertEqual(len(slots), 60)
        self.assertEqual(slots, sorted(slots))
        self.assertTrue(set(slots) <= set(wl.EDGE_PROFILE[5]))

    def test_interquartile_mean(self):
        self.assertEqual(run.interquartile_mean([1, 2, 3, 4, 5, 6, 7, 100]), 4.5)
        self.assertEqual(run.interquartile_mean([7]), 7)

    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(range(160))[0], 93)
        q, value = run.tail_percentile(range(31))
        self.assertEqual(sum(v > value for v in range(31)), 10)
        self.assertIsNone(run.tail_percentile(range(15)))


class TracerTest(unittest.TestCase):
    def test_smoke_run_covers_every_layer(self):
        tr = Tracer()
        tr.install()
        try:
            with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as d:
                for name, inst in (
                    ("verify-q", small_closure()),
                    ("tightness-gf2", small_closure(n=4, edges=9)),
                    ("graph-ingest", small_graph(d)),
                ):
                    w = wl.WORKLOADS[name]
                    self.assertIsNone(wl.gate(w, inst, w.run(inst), {}), name)
        finally:
            tr.uninstall()
        self.assertEqual(tr.absent, [])
        m = tr.metrics()
        for layer in LAYERS:
            called = [n for n, _ in tr.targets
                      if n.startswith(layer + ".") and m[f"{n}.calls"][0] > 0]
            self.assertTrue(called, f"no span in layer {layer}")
            self.assertGreater(m[f"layer.{layer}.self_s"][0], 0, layer)
        for name, _ in tr.targets:
            self.assertGreater(m[f"{name}.calls"][0], 0, name)
        self.assertGreater(m["oracle.faces"][0], 0)
        self.assertGreater(m["linalg.rank_exact.nnz"][0], 0)
        self.assertTrue(0 < m["oracle.zero_share"][0] < 1)
        # both modules that import rank_exact were covered, then restored
        from hibires import linalg, oracle, resolution
        self.assertIs(oracle.rank_exact, linalg.rank_exact)
        self.assertIs(resolution.rank_exact, linalg.rank_exact)
        self.assertFalse(hasattr(linalg.rank_exact, "__wrapped__"))

    def test_missing_function_is_absent(self):
        tr = Tracer(targets=(("oracle.no_such_function", None),))
        tr.install()
        tr.uninstall()
        self.assertEqual(tr.absent, ["oracle.no_such_function"])
        self.assertEqual(tr.metrics()["oracle.no_such_function.calls"][0], 0)

    def test_self_time_excludes_children(self):
        tr = Tracer(targets=())
        tr.spans = [["a", 0.0, 10.0, -1, 0, 0.0], ["b", 1.0, 4.0, 0, 0, 0.5],
                    ["b", 5.0, 6.0, 0, 0, 0.0]]
        calls, own = tr.self_times()
        self.assertEqual((calls["a"], calls["b"]), (1, 2))
        self.assertAlmostEqual(own["a"], 10.0 - 3.5 - 1.0)
        self.assertAlmostEqual(own["b"], 4.0)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_package(self):
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(BENCH, Path(d) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-q",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
