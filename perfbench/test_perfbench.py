"""Tests of the benchmark's own checks and inputs.

    python3 -m unittest discover -s perfbench -v     # from the repo root
    PERFBENCH_SLOW=1 python3 -m unittest discover -s perfbench -v

The fast tests need no build.  The demo_serial tests build perfbench/ on
first use (a few minutes).  PERFBENCH_SLOW=1 adds the count-repeat test on
every workload, about three minutes more on a 4-core host.
"""

import itertools
import os
import random
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NETWORK = """external Aext Bext
metabolite A B
R1 : Aext => A
R2r : A <=> B
R3r : B <=> A
R4 : B => Bext
"""
REVERSIBLE = {"R2r", "R3r"}
# Mode 2 is fully reversible and so oriented by its first nonzero.
CSV = b"R1,R2r,R3r,R4\n0,1,1,0\n1,1,0,1\n"


def permuted_csv():
    """CSV with columns in another order, as a permuted input yields."""
    return b"R3r,R4,R1,R2r\n-1,0,0,-1\n0,1,1,1\n"


def setUpModule():
    os.chdir(run.ROOT)


class CsvDigestTest(unittest.TestCase):
    def test_digest_ignores_column_order_and_orientation(self):
        self.assertEqual(run.csv_digest(CSV, REVERSIBLE),
                         run.csv_digest(permuted_csv(), REVERSIBLE))

    def test_irreversible_mode_is_not_flipped(self):
        flipped = b"R1,R2r,R3r,R4\n0,1,1,0\n-1,-1,0,-1\n"
        self.assertNotEqual(run.csv_digest(CSV, REVERSIBLE)[1],
                            run.csv_digest(flipped, REVERSIBLE)[1])

    def test_truncated_csv_is_an_error(self):
        for cut in (len(CSV) - 1, len(CSV) - 3):
            with self.assertRaises(run.CheckError):
                run.csv_digest(CSV[:cut], REVERSIBLE)

    def test_reversible_reactions(self):
        self.assertEqual(run.reversible_reactions(NETWORK), REVERSIBLE)


class PermuteNetworkTest(unittest.TestCase):
    def test_seed_zero_keeps_the_document(self):
        self.assertEqual(run.permute_network(NETWORK, 0), NETWORK)

    def test_other_seeds_respell_the_same_network(self):
        texts = [run.permute_network(NETWORK, seed) for seed in range(1, 6)]
        self.assertTrue(any(text != NETWORK for text in texts))
        for text in texts:
            self.assertEqual(sorted(text.split()), sorted(NETWORK.split()))
            self.assertEqual(reaction_names(text), reaction_names(NETWORK))
            self.assertEqual(run.reversible_reactions(text), REVERSIBLE)
        self.assertEqual(run.permute_network(NETWORK, 3),
                         run.permute_network(NETWORK, 3))

    def test_empty_sides_survive(self):
        text = "R1 : => A\nR2 : A =>\n"
        self.assertEqual(run.permute_network(text, 4), text)


def reaction_names(text):
    return [line.split(" : ")[0] for line in text.splitlines() if " : " in line]


def permute_reaction_lines(text, seed):
    """The network with its reaction lines in a seeded random order."""
    lines = text.splitlines()
    reactions = [line for line in lines if " : " in line]
    random.Random(seed).shuffle(reactions)
    return "\n".join([line for line in lines if " : " not in line]
                     + reactions) + "\n"


class FailureCountTest(unittest.TestCase):
    """A truncated CSV and a wrong mode count each count as a failed run."""

    def setUp(self):
        self.dir = os.path.join(run.RUNS, "unittest")
        os.makedirs(self.dir, exist_ok=True)
        self.expected = {"modes": 2,
                         "digest": run.csv_digest(CSV, REVERSIBLE)[1]}

    def fake_runs(self, outputs):
        """run_once stand-in that replays (modes, csv bytes) pairs."""
        replies = iter(outputs)

        def run_once(name, input_path, traced, index):
            modes, data = next(replies)
            path = os.path.join(self.dir, "%d.csv" % index)
            with open(path, "wb") as f:
                f.write(data)
            report = {"modes": modes, "used_bigint": False,
                      "csv_bytes": len(data), "wall_s": 1.0 + index,
                      "setup_s": [0.5], "peak_rss_mb": 10.0}
            return report, path
        return run_once

    def measure(self, outputs):
        with mock.patch.object(run, "make_input",
                               return_value=("unused", REVERSIBLE)), \
             mock.patch.object(run, "run_once", self.fake_runs(outputs)), \
             mock.patch.object(run, "log"):
            return run.measure("demo_serial", 0, 0, 0, self.expected)

    def test_bad_runs_are_counted(self):
        result, record = self.measure([(2, CSV[:-4]), (3, CSV), (2, CSV)])
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["failed"], 2)
        self.assertFalse(result["correct"])
        self.assertEqual(len(record["failures"]), 2)
        self.assertEqual(result["metrics"]["wall_s"]["value"], 4.0)

    def test_good_run_is_correct(self):
        result, _ = self.measure([(2, permuted_csv())])
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {"wall_s", "setup_s", "peak_rss_mb"})

    def test_differing_traced_counts_are_not_failed_runs(self):
        """A count that does not repeat makes the result incorrect, but no
        run failed."""
        index = itertools.count()

        def run_once(name, input_path, traced, _):
            n = next(index)
            path = os.path.join(self.dir, "%d.csv" % n)
            with open(path, "wb") as f:
                f.write(CSV)
            report = {"modes": 2, "used_bigint": False, "csv_bytes": len(CSV),
                      "wall_s": 1.0, "setup_s": [0.5], "peak_rss_mb": 10.0}
            if traced:
                counts = dict.fromkeys(run.EXACT_COUNTS[1:], 1.0)
                counts["nullspace.pairs_probed"] = float(n)
                report["metrics"] = counts
            return report, path

        with mock.patch.object(run, "make_input",
                               return_value=("unused", REVERSIBLE)), \
             mock.patch.object(run, "run_once", run_once), \
             mock.patch.object(run, "log"):
            result, record = run.measure("demo_serial", 0, 0.05, 1,
                                         self.expected)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(record["failures"], [])
        self.assertTrue(any("nullspace.pairs_probed" in problem
                            for problem in record["problems"]))

    def test_no_good_run_gives_no_result(self):
        with mock.patch.object(run, "LAST_START_S", 0.2):
            result, record = self.measure(itertools.repeat((1, CSV)))
        self.assertIsNone(result)
        self.assertTrue(record["failures"])


def traced_counts(name, seed):
    """Exact counts of one traced run of `name` on `seed`'s input."""
    path, reversible = run.make_input(name, seed)
    report, csv_path = run.run_once(name, path, True, 0)
    try:
        run.check_run(report, csv_path, reversible,
                      run.load_expected()[name])
    finally:
        os.remove(csv_path)
    return {key: run.count(report, key) for key in run.EXACT_COUNTS}


class ProgramTest(unittest.TestCase):
    """Runs the built elmo_perfbench (builds it on first use)."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_held_out_inputs_give_the_same_modes(self):
        """Seeded spellings and reordered reaction lines of demo_serial."""
        model = self.model_text("demo_serial")
        texts = [run.permute_network(model, seed) for seed in (0, 7)]
        texts.append(permute_reaction_lines(model, 7))
        expected = run.load_expected()["demo_serial"]
        for index, text in enumerate(texts):
            path = os.path.join(run.RUNS, "unittest-demo-%d.txt" % index)
            with open(path, "w") as f:
                f.write(text)
            report, csv_path = run.run_once("demo_serial", path, False,
                                            100 + index)
            try:
                run.check_run(report, csv_path,
                              run.reversible_reactions(text), expected)
            finally:
                os.remove(csv_path)

    @staticmethod
    def model_text(name):
        path, _ = run.make_input(name, 0)
        with open(path) as f:
            return f.read()

    @unittest.skipUnless(os.environ.get("PERFBENCH_SLOW"),
                         "set PERFBENCH_SLOW=1 to run every workload twice")
    def test_counts_repeat(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(traced_counts(name, 1),
                                 traced_counts(name, 1))


if __name__ == "__main__":
    unittest.main()
