"""Tests of the benchmark itself.

    python3 -m unittest perfbench/selftest.py

They build small inputs, so they take well under a minute. The file is not
named test_*.py, so the project's own test suite does not collect it.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import annkh  # noqa: E402
import annkh.cli  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
from census import vertex_census  # noqa: E402
from run import run_op  # noqa: E402

from annkh.burau import LaurentPoly  # noqa: E402


def _random_word(rng, n, length):
    return tuple(rng.choice([g for g in range(1 - n, n) if g]) for _ in range(length))


class CensusTest(unittest.TestCase):
    def test_matches_the_engine_tracer(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            word = _random_word(rng, n, rng.randint(0, 7)) if n > 1 else ()
            census = vertex_census(n, word)
            diagram = annkh.closure_diagram(annkh.BraidWord(n, word))
            for v in range(1 << len(word)):
                _, windings, _ = diagram._trace(v)
                self.assertEqual(census[v, 1], len(windings), (n, word, v))
                self.assertEqual(census[v, 2], sum(1 for w in windings if w), (n, word, v))

    def test_generator_count_matches_census_and_engine(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 5)
            word = _random_word(rng, n, rng.randint(0, 8))
            from_census = sum(1 << int(m) for m in vertex_census(n, word)[:, 1])
            self.assertEqual(corpus.generator_count(n, word), from_census, (n, word))
        w = annkh.BraidWord(3, (1, -2, 1, 1, -2, 2))
        cx = annkh.build_complex(annkh.closure_diagram(w))
        self.assertEqual(corpus.generator_count(3, w.letters), cx.total_generators)


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in corpus.WORKLOADS:
            self.assertEqual(corpus.build(workload, 5), corpus.build(workload, 5))
            self.assertNotEqual(corpus.build(workload, 5), corpus.build(workload, 6))

    def test_decide_pairs_have_the_garside_verdict(self):
        for seed in range(3):
            for op in corpus.build("decide", seed):
                if op.kind != "equal":
                    continue
                w1 = annkh.BraidWord(op.strands, op.word)
                w2 = annkh.BraidWord(op.strands, op.other)
                self.assertEqual(annkh.words_equal(w1, w2), op.truth == "equal", op)
                diff = annkh.BraidWord(op.strands, corpus.free_reduce(op.word + corpus.inverse(op.other)))
                self.assertEqual(diff.is_pure(), op.truth != "unequal-by-permutation", op)

    def test_bigelow_word_is_the_library_fixture(self):
        self.assertEqual(corpus.bigelow_word(), annkh.bigelow_kernel_word().letters)


class TablesCheckTest(unittest.TestCase):
    word = (1, -2, 1, 1, -2, 2, 1)

    def _outputs(self):
        w = annkh.BraidWord(3, self.word)
        return annkh.skh(w), annkh.kh(w)

    def test_engine_output_passes(self):
        skh, kh = self._outputs()
        self.assertEqual(checks.check_tables(3, self.word, skh, kh), [])

    def test_rejects_one_changed_dimension(self):
        skh, kh = self._outputs()
        for table in (skh, kh):
            for key in table:
                bad_skh, bad_kh = dict(skh), dict(kh)
                (bad_skh if table is skh else bad_kh)[key] += 1
                self.assertNotEqual(checks.check_tables(3, self.word, bad_skh, bad_kh), [], key)

    def test_rejects_a_rank_error(self):
        # one rank too low adds a dimension at i and at i + 1: Euler is blind to it
        skh, kh = self._outputs()
        (i, j), _ = next(iter(sorted(kh.items())))
        bad_kh = dict(kh)
        bad_kh[(i, j)] += 1
        bad_kh[(i + 1, j)] = bad_kh.get((i + 1, j), 0) + 1
        self.assertNotEqual(checks.check_tables(3, self.word, skh, bad_kh), [])
        (i, j, k), _ = next(iter(sorted(skh.items())))
        bad_skh = dict(skh)
        bad_skh[(i, j, k)] += 1
        bad_skh[(i + 1, j, k)] = bad_skh.get((i + 1, j, k), 0) + 1
        self.assertNotEqual(checks.check_tables(3, self.word, bad_skh, kh), [])


class DecideCheckTest(unittest.TestCase):
    def test_engine_output_passes_and_a_flipped_verdict_fails(self):
        ops = corpus.build("decide", 0)
        kinds = {}
        for op in ops:
            kinds.setdefault((op.kind, op.truth), op)
        for op in kinds.values():
            code, text = run_op(annkh, op)
            if op.kind == "equal":
                self.assertEqual(checks.check_equal(op, code, text), [], op)
                env = json.loads(text)
                env["verdict"] = "unequal" if env["verdict"] == "equal" else "equal"
                self.assertNotEqual(checks.check_equal(op, code, json.dumps(env)), [], op)
                self.assertNotEqual(checks.check_equal(op, 2 - code, text), [], op)
            else:
                nf = lambda n, w: annkh.left_normal_form(annkh.BraidWord(n, w))  # noqa: E731
                self.assertEqual(checks.check_plam(op, code, text, nf), [], op)
                env = json.loads(text)
                env["payload"]["psi_nonzero"] = not env["payload"]["psi_nonzero"]
                env["verdict"] = "nonzero" if env["payload"]["psi_nonzero"] else "zero"
                self.assertNotEqual(checks.check_plam(op, code, json.dumps(env), nf), [], op)

    def test_plam_checks_on_small_words(self):
        # transverse-class checks on many small words, against the engine's verdicts
        rng = random.Random(3)
        nf = lambda n, w: annkh.left_normal_form(annkh.BraidWord(n, w))  # noqa: E731
        for _ in range(40):
            n = rng.randint(2, 4)
            op = corpus.Op("plam", n, _random_word(rng, n, rng.randint(1, 6)))
            code, text = run_op(annkh, op)
            self.assertEqual(checks.check_plam(op, code, text, nf), [], op)


class OracleCheckTest(unittest.TestCase):
    op = corpus.Op("oracle", 4, (1, -2, 3, 3, -1, 2, 2, -3, 1, 1, -2, 3))

    def test_engine_output_passes(self):
        self.assertEqual(checks.check_oracle(self.op, run_op(annkh, self.op), annkh, 0), [])

    def test_rejects_one_altered_burau_entry(self):
        nf, matrix, det, cp = run_op(annkh, self.op)
        n = len(matrix.entries)
        for r in range(n):
            for c in range(n):
                rows = [list(row) for row in matrix.entries]
                rows[r][c] = rows[r][c].add(LaurentPoly.t_power(1))
                bad = type(matrix)(tuple(tuple(row) for row in rows))
                self.assertNotEqual(checks.check_oracle(self.op, (nf, bad, det, cp), annkh, 0), [])

    def test_rejects_a_changed_normal_form_det_or_char_poly(self):
        nf, matrix, det, cp = run_op(annkh, self.op)
        bad_nf = type(nf)(nf.strands, nf.infimum + 1, nf.factors)
        self.assertNotEqual(checks.check_oracle(self.op, (bad_nf, matrix, det, cp), annkh, 0), [])
        bad_det = det.add(LaurentPoly.const(1))
        self.assertNotEqual(checks.check_oracle(self.op, (nf, matrix, bad_det, cp), annkh, 0), [])
        bad_cp = cp.add(type(cp).lam())
        self.assertNotEqual(checks.check_oracle(self.op, (nf, matrix, det, bad_cp), annkh, 0), [])

    def test_bigelow(self):
        op = corpus.Op("oracle", 5, corpus.bigelow_word())
        out = run_op(annkh, op)
        self.assertEqual(checks.check_bigelow(out), [])
        nf, matrix, det, cp = out
        trivial = type(nf)(5, 0, ())
        self.assertNotEqual(checks.check_bigelow((trivial, matrix, det, cp)), [])
        other = annkh.burau_matrix(annkh.BraidWord(5, (1, 2)))
        self.assertNotEqual(checks.check_bigelow((nf, other, det, cp)), [])


if __name__ == "__main__":
    unittest.main()
