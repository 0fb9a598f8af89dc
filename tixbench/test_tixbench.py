"""Tests of the benchmark's own machinery (no tixd needed):

    python3 -m unittest discover -s tixbench -p 'test_*.py'
"""

import math
import os
import random
import tempfile
import unittest

import fleet
import gen
import run
import stats

TERMS = gen.Terms(
    [(f"w{i:05d}", max(1, int(280000 / (i + 1)))) for i in range(3000)]
    + [(f"xt{w}f{f}", f) for w in (1, 2) for f in (20, 100, 1000, 10000)]
    + [("xg0", 1500), ("xq1a", 5000), ("xq1b", 1800), ("xq2a", 4000), ("xq2b", 3000)])

EXPLAIN = """10 results (anchors 3001, scored 10)
<result>
  <score>42.40</score>
  <article>Query (select) lookalike text in the body</article>
</result>

Query (select)  [22.046 ms, rows=10]
|     record_fetches=4515, index_lookups=4, term_join_occurrences=683
|-- StructuralMatch (document root)  [1.498 ms, rows=3001]
|         record_fetches=3001
|-- TermJoin (plain, topk-pushdown(k=10))  [20.455 ms, rows=10]
|   |     record_fetches=1504, term_join_occurrences=683, occurrences=683
|   `-- PhraseFinder (2 terms)  [3.000 ms, rows=5]
|             occurrences=40
|-- Scope (anchor semi-join + target filters)  [0.049 ms, rows=10]
|         record_fetches=10
`-- Threshold (top_k=10, pushed down)  [0.004 ms, rows=10]
          pushed=10, dropped_by_score=0, dropped_by_heap=0
"""


class GeneratorTest(unittest.TestCase):
    def sequences(self, seed, kind="topk"):
        makers = {"topk": lambda rng: gen.topk_maker(rng, TERMS, ("foo", "tfidf")),
                  "pick": lambda rng: gen.pick_maker(rng, TERMS, gen.hot_set(seed)),
                  "live": lambda rng: gen.live_maker(rng, TERMS, gen.hot_set(seed))}
        return gen.distinct_sequences(makers[kind], seed, "measure", 3, 50, set())

    def test_same_seed_same_inputs(self):
        for kind in ("topk", "pick", "live"):
            self.assertEqual(self.sequences(7, kind), self.sequences(7, kind))
        self.assertEqual(gen.ingest_plan(7, 200), gen.ingest_plan(7, 200))
        self.assertEqual(gen.live_document(7, 3), gen.live_document(7, 3))
        self.assertEqual(gen.hot_set(7), gen.hot_set(7))

    def test_other_seed_other_inputs(self):
        for kind in ("topk", "pick", "live"):
            self.assertNotEqual(self.sequences(7, kind), self.sequences(8, kind))
        self.assertNotEqual(gen.live_document(7, 3), gen.live_document(8, 3))

    def test_queries_never_repeat_and_skip_taken_text(self):
        taken = {gen.SETUP_QUERY}
        def make(rng):
            return gen.topk_maker(rng, TERMS, ("foo", "tfidf"))
        warm = gen.distinct_sequences(make, 1, "warm", 4, 100, taken)
        measured = gen.distinct_sequences(make, 1, "measure", 4, 100, taken)
        warm_texts = {q for seq in warm for q in seq}
        measured_texts = [q for seq in measured for q in seq]
        self.assertEqual(len(measured_texts), len(set(measured_texts)))
        self.assertFalse(warm_texts & set(measured_texts))
        self.assertNotIn(gen.SETUP_QUERY, warm_texts | set(measured_texts))

    def test_sharded_generator_uses_only_exact_scorers(self):
        sequence = gen.distinct_sequences(
            lambda rng: gen.topk_maker(rng, TERMS, ("foo",)), 1, "m", 1, 100, set())[0]
        self.assertTrue(all("USING foo(" in q for q in sequence))

    def test_pick_queries_are_each_scoped_to_a_hot_document(self):
        hot = {f'document("{name}")' for name in gen.hot_set(5)}
        for sequence in self.sequences(5, "pick"):
            for query in sequence:
                self.assertIn(query.split("//")[0].split("IN ")[1], hot)
                self.assertIn("PICK $a USING", query)

    def test_ingest_plan_deletes_one_live_doc_per_ten_ingests(self):
        plan = gen.ingest_plan(3, 330)
        deletes = [i for op, i in plan if op == "delete"]
        self.assertEqual(len(deletes), 30)
        live = set()
        for op, i in plan:
            if op == "ingest":
                live.add(i)
            else:
                self.assertIn(i, live)
                live.remove(i)


class PercentileTest(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertTrue(stats.supports(10000, 99.9))
        self.assertFalse(stats.supports(9999, 99.9))
        self.assertTrue(stats.supports(1000, 99.0))
        self.assertFalse(stats.supports(999, 99.0))
        self.assertTrue(stats.supports(200, 95.0))
        self.assertFalse(stats.supports(199, 95.0))
        self.assertTrue(stats.supports(20, 50.0))
        self.assertFalse(stats.supports(19, 50.0))

    def test_summary_reports_the_fixed_percentile_and_count(self):
        summary = stats.latency_summary([float(i) for i in range(1, 1001)], 0, 99.0)
        self.assertEqual(summary["count"], 1000)
        self.assertEqual(summary["tail_p"], 99.0)
        self.assertEqual(summary["tail_ms"], 990.0)
        self.assertEqual(summary["p50_ms"], 500.0)
        self.assertTrue(summary["supported"])
        # Ten times the samples: still p99, never a higher percentile.
        more = stats.latency_summary([i / 10 for i in range(1, 10001)], 0, 99.0)
        self.assertEqual((more["tail_p"], more["tail_ms"]), (99.0, 990.0))
        # Too few samples: the same percentile, flagged as unsupported.
        few = stats.latency_summary([float(i) for i in range(1, 500)], 0, 99.0)
        self.assertEqual(few["tail_p"], 99.0)
        self.assertFalse(few["supported"])

    def test_every_workload_fixes_a_percentile(self):
        for name, spec in run.WORKLOADS.items():
            self.assertIn(spec["tail_p"], (50.0, 90.0, 95.0, 99.0, 99.9), name)


class WindowTest(unittest.TestCase):
    def test_windowed_medians(self):
        # Five 1 s windows: 4, 4, 1, 4, 4 completions; one slow window and
        # one failure move neither median.
        events = []
        for w, n in enumerate((4, 4, 1, 4, 4)):
            events += [(100.0 + w + 0.1 * k, 10.0 + w) for k in range(n)]
        events.append((102.5, None))
        events.append((99.0, 1.0))  # before the phase: ignored
        qps, p50 = stats.windowed(events, 100.0, 5.0, 5)
        self.assertEqual(qps, 4.0)
        self.assertEqual(p50, 12.0)


class ErrorAccountingTest(unittest.TestCase):
    def test_refused_op_is_failed_and_has_no_latency(self):
        outcomes = stats.Outcomes()
        for ms in (1.0, 2.0, 3.0):
            outcomes.ok(ms)
        outcomes.refuse()
        outcomes.refuse()
        self.assertEqual(outcomes.attempted, 5)
        self.assertEqual(outcomes.errors, 2)
        self.assertAlmostEqual(outcomes.error_rate, 0.4)
        summary = outcomes.summary(50.0)
        self.assertEqual(summary["count"], 5)
        # Two of five samples are "infinitely slow": the median is the
        # third-fastest, and every percentile above 60 misses.
        self.assertEqual(summary["p50_ms"], 3.0)
        self.assertTrue(math.isinf(stats.percentile(
            sorted([1.0, 2.0, 3.0, math.inf, math.inf]), 80)))

    def test_wrong_answer_counts_as_error_but_keeps_latency(self):
        outcomes = stats.Outcomes()
        outcomes.ok(5.0)
        outcomes.ok(6.0)
        outcomes.mark_wrong()
        self.assertEqual(outcomes.attempted, 2)
        self.assertEqual(outcomes.errors, 1)
        self.assertEqual(outcomes.summary(50.0)["count"], 2)

    def test_failed_and_merged_outcomes(self):
        a, b = stats.Outcomes(), stats.Outcomes()
        a.ok(1.0)
        a.fail()
        b.refuse()
        b.ok(2.0)
        a.merge(b)
        self.assertEqual((a.attempted, a.failed, a.refused, a.errors), (4, 1, 1, 2))


class TraceTest(unittest.TestCase):
    def test_parse_explain_tree(self):
        root = stats.parse_explain(EXPLAIN)
        self.assertEqual(root["name"], "Query (select)")
        self.assertAlmostEqual(root["ms"], 22.046)
        self.assertEqual([c["name"].split()[0] for c in root["children"]],
                         ["StructuralMatch", "TermJoin", "Scope", "Threshold"])
        term_join = root["children"][1]
        self.assertEqual(term_join["counters"]["term_join_occurrences"], 683)
        self.assertEqual(term_join["children"][0]["name"], "PhraseFinder (2 terms)")
        self.assertEqual(stats.operator_counter(root, "TermJoin",
                                                "term_join_occurrences"), 683)
        # A matched operator's children are not counted twice.
        self.assertAlmostEqual(stats.operator_ms(root, "TermJoin"), 20.455)
        self.assertAlmostEqual(stats.operator_ms(root, "PhraseFinder"), 3.0)
        self.assertIsNone(stats.parse_explain("3 results (anchors 1, scored 1)\n"))

    def test_coverage_is_child_span_time_over_round_trip(self):
        root = stats.parse_explain(EXPLAIN)
        spans = 1.498 + 20.455 + 0.049 + 0.004
        self.assertAlmostEqual(stats.coverage(root, 25.0), spans / 25.0)
        self.assertAlmostEqual(stats.coverage(root, spans), 1.0)
        with self.assertRaises(ValueError):
            stats.coverage(root, 0.0)


class CorpusKeyTest(unittest.TestCase):
    def test_corpus_dir_follows_the_sources(self):
        root = fleet.ROOT
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fleet.ROOT = tmp
                os.makedirs(os.path.join(tmp, "src", "index"))
                os.makedirs(os.path.join(tmp, "tixbench"))
                with open(os.path.join(tmp, "tixbench", "CMakeLists.txt"), "w") as f:
                    f.write("project(tixbench)")
                source = os.path.join(tmp, "src", "index", "codec.cc")
                digests = []
                for text in ("format 3", "format 4", "format 3"):
                    with open(source, "w") as f:
                        f.write(text)
                    fleet.source_digest.cache_clear()
                    digests.append(fleet.source_digest())
                    self.assertTrue(fleet.corpus_dir().endswith(digests[-1]))
                self.assertNotEqual(digests[0], digests[1])
                self.assertEqual(digests[0], digests[2])
                # The Python driver is not a corpus input.
                with open(os.path.join(tmp, "tixbench", "run.py"), "w") as f:
                    f.write("changed")
                fleet.source_digest.cache_clear()
                self.assertEqual(fleet.source_digest(), digests[2])
            finally:
                fleet.ROOT = root
                fleet.source_digest.cache_clear()


class VerificationTest(unittest.TestCase):
    def test_masks(self):
        single = b"10 results (anchors 3001, scored 10)\n<result/>"
        fleet = b"10 results (anchors 3001, scored 20)\n<result/>"
        q = 'FOR $a IN document("*")//* SCORE $a USING foo({"x"}) RETURN $a'
        self.assertTrue(run.matches("topk_sharded", q, fleet, ("OK", single)))
        self.assertFalse(run.matches("topk_corpus", q, fleet, ("OK", single)))
        grown = b"10 results (anchors 3950, scored 10)\n<result/>"
        self.assertTrue(run.matches("ingest_live", q, grown, ("OK", single)))
        scoped = q.replace('"*"', '"article1.xml"')
        self.assertFalse(run.matches("ingest_live", scoped, grown, ("OK", single)))
        self.assertFalse(run.matches("topk_corpus", q, b"10 results (anchors 3001, "
                                     b"scored 10)\n<other/>", ("OK", single)))

    def test_errors_match_by_code(self):
        self.assertTrue(run.matches("pick_scoped", "q", 2, ("ERR", 2)))
        self.assertFalse(run.matches("pick_scoped", "q", 9, ("ERR", 2)))
        self.assertFalse(run.matches("pick_scoped", "q", 2, ("OK", b"x")))
        self.assertFalse(run.matches("pick_scoped", "q", b"x", ("ERR", 2)))

    def test_verify_sample_is_seeded(self):
        responses = {f"q{i}": b"" for i in range(100)}
        self.assertEqual(run.verify_sample(4, responses), run.verify_sample(4, responses))
        self.assertEqual(len(run.verify_sample(4, responses)), run.VERIFY_SAMPLE)
        self.assertNotEqual(set(run.verify_sample(4, responses)),
                            set(run.verify_sample(5, responses)))


if __name__ == "__main__":
    random.seed(0)
    unittest.main()
