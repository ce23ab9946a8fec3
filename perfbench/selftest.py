"""Self-test of the benchmark: input generators, verifiers and tracer.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from stringymass import cli  # noqa: E402


def _outputs(*argvs):
    return [run._call(cli.main, argv)[1:] for argv in argvs]


def _with_result(outputs, index, edit):
    """A copy of outputs whose index-th report has edit applied to its result."""
    code, text = outputs[index]
    report = json.loads(text)
    edit(report["result"])
    changed = list(outputs)
    changed[index] = (code, json.dumps(report))
    return changed


class GeneratorTest(unittest.TestCase):
    def _fixture(self, name):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
            return json.load(handle)

    def test_one_third_chain_matches_fixture(self):
        self.assertEqual(wl.chain_strata(3, 1), self._fixture("one_third_1_1_resolution.json"))

    def test_a1_chain_matches_fixture(self):
        self.assertEqual(wl.chain_strata(2, 1), self._fixture("a1_resolution.json"))

    def test_hirzebruch_jung_rays(self):
        # 5/2 = [3, 2]; 7/3 = [3, 2, 2]; 7/2 = [4, 2].
        self.assertEqual(wl.hj_rays(5, 2), [(1, 2), (3, 1)])
        self.assertEqual(wl.hj_rays(7, 3), [(1, 3), (3, 2), (5, 1)])
        self.assertEqual(wl.hj_rays(7, 2), [(1, 2), (4, 1)])

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for workload in wl.WORKLOADS.values():
                params = [[sorted(job.params for job in next(rounds)) for _ in range(3)]
                          for rounds in (wl.rounds(workload, 7, a), wl.rounds(workload, 7, b),
                                         wl.rounds(workload, 8, b))]
                self.assertEqual(params[0], params[1])
                # Another seed draws other inputs, not only another order.
                self.assertNotEqual(params[0], params[2])

    def test_chain_table_is_the_pool(self):
        self.assertEqual([list(stratum) for stratum in wl.CHAIN_STRATA], wl.chain_strata_pool())

    def test_sweep_round_covers_every_stratum(self):
        jobs = next(wl.rounds(wl.WORKLOADS["sweep"], 3, ""))
        self.assertEqual(sorted(next(i for i, s in enumerate(wl.PD_STRATA) if job.params in s)
                                for job in jobs), list(range(wl.SWEEP_STRATA)))

    def test_partition_count(self):
        # Partitions of 1..4 with parts <= 2: 1, 2, 2, 3; minus the all-ones ones.
        self.assertEqual(wl._partition_rows(2, 4), 0 + 1 + 1 + 2)

    def test_decimal_beyond_the_digit_limit(self):
        self.assertEqual(wl.decimal(10**3 + 7), "1007")
        digits = wl.decimal(7 ** 9000)
        self.assertEqual(len(digits), 7606)
        self.assertEqual(int(digits[-6:]), 7 ** 9000 % 10**6)


class VerifierTest(unittest.TestCase):
    def test_sweep(self):
        outputs = _outputs(("sweep", "--p", "3", "--max-dim", "6", "--json"))
        wl.verify_sweep((3, 6), outputs)

        def wrong_euler(result):
            row = next(r for r in result["rows"] if r["euler"] not in (None, "infinity"))
            row["euler"] = "7/2"

        for edit in (wrong_euler,
                     lambda result: result["rows"].pop(),
                     lambda result: result["rows"][-1].update(uniform=True)):
            with self.assertRaises(wl.Wrong):
                wl.verify_sweep((3, 6), _with_result(outputs, 0, edit))

    def test_stringy_chain(self):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "c.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(wl.chain_strata(7, 3), handle)
            outputs = _outputs(("stringy", "--input", path, "--with-chi", "--json"),
                               ("mass", "tame", "--m", "7", "--weights", "1,3", "--json"))
        wl.verify_stringy(("chain", 7, 3), outputs)

        def shift_exponent(result):
            result["motif"]["num"][0][0] += 1

        with self.assertRaises(wl.Wrong):
            wl.verify_stringy(("chain", 7, 3), _with_result(outputs, 0, shift_exponent))
        with self.assertRaises(wl.Wrong):
            wl.verify_stringy(("chain", 7, 3),
                              _with_result(outputs, 0, lambda r: r.update(chi_direct=2)))

    def test_stringy_dense(self):
        params = ("dense", 3, (2, 5, 1))
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "d.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(wl.dense_strata(3, (2, 5, 1)), handle)
            outputs = _outputs(("stringy", "--input", path, "--json"))
        wl.verify_stringy(params, outputs)

        def shift_exponent(result):
            # Same value at L = 1, different function: only the second check sees it.
            result["motif"]["num"][0][0] += result["motif"]["num"][0][1]

        with self.assertRaises(wl.Wrong):
            wl.verify_stringy(params, _with_result(outputs, 0, shift_exponent))

    def test_serre(self):
        outputs = _outputs(("serre", "--q", "49", "--n", "12", "--json"))
        wl.verify_serre((49, 12), outputs)
        edits = (
            lambda r: r.update(classes=r["classes"] + 1),
            lambda r: r["aut_orders"].__setitem__(0, 1),
            lambda r: r.update(mass="1/49"),
        )
        for edit in edits:
            with self.assertRaises(wl.Wrong):
                wl.verify_serre((49, 12), _with_result(outputs, 0, edit))

    def test_serre_draws_stay_printable(self):
        with tempfile.TemporaryDirectory() as workdir:
            rounds = wl.rounds(wl.WORKLOADS["serre"], 3, workdir)
            params = [job.params for _ in range(30) for job in next(rounds)]
        self.assertTrue(all(q ** (n - 1) < wl._PRINTABLE for q, n in params))
        self.assertTrue(any(q - 1 > wl.max_degree(q) for q, _ in params))

    def test_defect_line_is_the_programs(self):
        q = 1999
        top = wl.max_degree(q)
        wl.verify_serre((q, top), _outputs(("serre", "--q", str(q), "--n", str(top), "--json")))
        code, text = _outputs(("serre", "--q", str(q), "--n", str(top + 1), "--json"))[0]
        self.assertIsNone(code)
        self.assertIn(run.KNOWN_DEFECT, text)
        jobs = wl.serre_defect_jobs(5)
        self.assertEqual(len(jobs), wl.DEFECT_PROBES)
        self.assertTrue(all(q ** (n - 1) >= wl._PRINTABLE for q, n in (j.params for j in jobs)))

    def test_exit_code_is_checked(self):
        code, text = _outputs(("serre", "--q", "9", "--n", "4", "--json"))[0]
        with self.assertRaises(wl.Wrong):
            wl.verify_serre((9, 4), [(1, text)])


class RunnerTest(unittest.TestCase):
    def test_known_defect_counts_as_failed_not_wrong(self):
        outcome = run.Outcome()
        job = wl.Job((("serre", "--q", "1999", "--n", "1998", "--json"),), (1999, 1998))
        run._run_job(cli, wl.WORKLOADS["serre"], job, outcome)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 1))
        self.assertEqual(outcome.failures, {"int_str_limit": 1})
        self.assertEqual(outcome.wrong, [])

    def test_wrong_value_is_reported(self):
        outcome = run.Outcome()
        job = wl.Job((("serre", "--q", "9", "--n", "4", "--json"),), (9, 8))
        run._run_job(cli, wl.WORKLOADS["serre"], job, outcome)
        self.assertEqual(outcome.failures, {"wrong": 1})
        self.assertEqual(len(outcome.wrong), 1)


class ScalingTest(unittest.TestCase):
    def test_jobs_are_scaled_to_nominal_speed(self):
        outcome = run.Outcome()
        nominal = run.NOMINAL_REFERENCE_S
        outcome.latencies = [1.0, 1.1, 2.0]
        outcome.references = [nominal, 1.1 * nominal, 2 * nominal]
        self.assertEqual([round(t, 12) for t in outcome.scaled()], [1.0, 1.0, 1.0])

    def test_byte_count_keeps_no_text(self):
        sink = run._ByteCount()
        print("abc", file=sink)
        self.assertEqual(sink.count, 4)


class MemoryProbeTest(unittest.TestCase):
    def test_reads_the_child_not_the_parent(self):
        # ru_maxrss in a spawned child would read at least this ballast.
        ballast = bytearray(96 << 20)
        ballast[::4096] = b"\x01" * len(ballast[::4096])
        args = run.argparse.Namespace(workload="serre", seed=1, seconds=1)
        outcome = run.Outcome()
        outcome.sizes = [10]
        job = wl.Job((("serre", "--q", "9", "--n", "4", "--json"),), (9, 4))
        os.makedirs(run.RUNS_DIR, exist_ok=True)
        self.assertLess(run._memory_probe(args, outcome, [job]), 64)
        del ballast


class TracerTest(unittest.TestCase):
    def test_install_counts_and_restores(self):
        import stringymass
        from stringymass import cyclic, localfields, motivic

        originals = (cli.main, cli.crepant_conditions, cyclic.poincare_realize,
                     stringymass.poincare_realize, motivic.MotivicElement.__radd__,
                     localfields.FiniteField.__dict__["of_order"])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.crepant_conditions, originals[1])
            self.assertIsNot(cyclic.poincare_realize, originals[2])
            outcome = run.Outcome()
            for job, workload in (
                    (wl.Job((("sweep", "--p", "3", "--max-dim", "5", "--json"),), (3, 5)), "sweep"),
                    (wl.Job((("serre", "--q", "9", "--n", "4", "--json"),), (9, 4)), "serre")):
                run._run_job(cli, wl.WORKLOADS[workload], job, outcome, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(outcome.passed, 2)
        current = (cli.main, cli.crepant_conditions, cyclic.poincare_realize,
                   stringymass.poincare_realize, motivic.MotivicElement.__radd__,
                   localfields.FiniteField.__dict__["of_order"])
        for before, after in zip(originals, current):
            self.assertIs(before, after)
        metrics = tracer.layer_metrics(2.0, 1.0)
        self.assertEqual([name for name, _, _ in __import__("tracing").LAYER_METRICS],
                         list(metrics))
        value = {name: entry["value"] for name, entry in metrics.items()}
        self.assertGreater(value["cyclic.wild_mass_calls"], 0)
        self.assertGreater(value["motivic.reduce_calls"], 0)
        self.assertEqual(value["localfields.enumerations_per_job"], 1.0)  # 2 per serre job
        self.assertEqual(value["localfields.unit_scans_per_job"], 2.0)
        self.assertEqual(value["stringy.terms"], 0)
        self.assertEqual(value["trace.overhead_ratio"], 2.0)
        self.assertLessEqual(value["cli.self_s"], value["cli.main_s"])


if __name__ == "__main__":
    unittest.main()
