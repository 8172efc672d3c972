"""The differential oracle: generator, reference evaluator, driver, shrinker.

The tier-1 tests keep the sweep small; the CI correctness job runs the
``slow``-marked sweep (>= 200 document/query pairs across the ViST
configurations, Naive/RIST and the join baselines).
"""

import copy
import json

import pytest

from repro.doc.model import XmlNode
from repro.query.xpath import parse_xpath
from repro.sequence.vocabulary import ValueHasher
from repro.testing.generator import DocQueryGenerator
from repro.testing.oracle import (
    VIST_CONFIGS,
    DifferentialOracle,
    Divergence,
    OracleReport,
)
from repro.testing.reference import reference_matches, reference_results


class TestGenerator:
    def test_deterministic_per_seed(self):
        a, b = DocQueryGenerator(99), DocQueryGenerator(99)
        corpus_a, corpus_b = a.corpus(4, 10), b.corpus(4, 10)
        assert [d.to_xml() for d in corpus_a] == [d.to_xml() for d in corpus_b]
        assert a.query(corpus_a).to_xpath() == b.query(corpus_b).to_xpath()

    def test_seeds_differ(self):
        a = DocQueryGenerator(1).corpus(3, 10)
        b = DocQueryGenerator(2).corpus(3, 10)
        assert [d.to_xml() for d in a] != [d.to_xml() for d in b]

    def test_queries_parse_back(self):
        # Queries with a descendant-axis branch render as "[/..." which
        # the XPath-subset parser does not accept; the oracle feeds query
        # *trees* to the indexes, so parse-back only matters for the rest.
        generator = DocQueryGenerator(7)
        corpus = generator.corpus(3, 10)
        parseable = 0
        for _ in range(20):
            xpath = generator.query(corpus).to_xpath()
            if "[/" in xpath:
                continue
            assert parse_xpath(xpath) is not None
            parseable += 1
        assert parseable > 0


class TestReferenceEvaluator:
    def setup_method(self):
        self.hasher = ValueHasher()
        self.doc = XmlNode("r")
        a = self.doc.element("a")
        a.element("b", text="v1")
        self.doc.element("c", k="v2")

    def matches(self, xpath: str) -> bool:
        return reference_matches(self.doc, parse_xpath(xpath), self.hasher)

    def test_child_and_descendant_axes(self):
        assert self.matches("/r/a/b")
        assert self.matches("//b")
        assert not self.matches("/r/b")  # b is not a direct child of r

    def test_values_and_attributes(self):
        assert self.matches("/r/a/b[text='v1']")
        assert not self.matches("/r/a/b[text='nope']")
        assert self.matches("/r/c[k='v2']")  # attributes are child nodes

    def test_wildcards(self):
        assert self.matches("/r/*/b")
        assert self.matches("/*")
        assert not self.matches("/r/a/b/*")  # value leaves don't count

    def test_results_are_corpus_positions(self):
        other = XmlNode("r")
        other.element("x")
        corpus = [self.doc, other, copy.deepcopy(self.doc)]
        assert reference_results(corpus, parse_xpath("//b"), self.hasher) == [0, 2]


class TestOracleRuns:
    def test_small_sweep_clean(self):
        oracle = DifferentialOracle(
            docs_per_seed=3, doc_size=8, queries_per_seed=2
        )
        report = oracle.run(range(3))
        assert report.ok, [d.to_dict() for d in report.divergences]
        # queries per seed + the post-deletion re-check
        assert report.pairs == 3 * (2 + 1)
        assert len(VIST_CONFIGS) == 2  # posting cache on/off
        # naive, rist and the two join baselines
        assert report.families == len(VIST_CONFIGS) + 4

    @pytest.mark.slow
    def test_full_sweep_200_pairs(self):
        oracle = DifferentialOracle()
        report = oracle.run(range(40))
        assert report.pairs >= 200
        assert report.ok, [d.to_dict() for d in report.divergences]

    def test_artifact_roundtrip(self, tmp_path):
        report = OracleReport(
            seeds=1,
            pairs=1,
            families=1,
            divergences=[
                Divergence(
                    seed=17,
                    family="vist[cache]",
                    kind="exact",
                    xpath="/r/a",
                    expected=[0],
                    got=[],
                    documents=["<r><a/></r>"],
                )
            ],
        )
        report.write_artifacts(str(tmp_path))
        data = json.loads((tmp_path / "oracle-failures.json").read_text())
        assert data[0]["seed"] == 17
        assert "--start 17" in data[0]["reproduce"]

    def test_cli_entrypoint(self, capsys):
        from repro.testing.oracle import main

        rc = main(["--seeds", "1", "--docs", "2", "--doc-size", "6", "--queries", "1"])
        assert rc == 0
        assert "0 divergence(s)" in capsys.readouterr().out

    def test_cli_fails_when_nothing_is_answered_raw_exact(self, capsys, monkeypatch):
        """A classifier that always says "verify" passes every equality;
        the sweep's own count of skipped verifications catches it."""
        from repro.index import base
        from repro.testing.oracle import main

        small = ["--seeds", "50", "--docs", "1", "--doc-size", "4", "--queries", "1"]
        assert main(small) == 0
        assert " 0 answered raw-exact" not in capsys.readouterr().out
        monkeypatch.setattr(base, "raw_is_exact", lambda root: False)
        assert main(small) == 1
        out = capsys.readouterr().out
        assert "(0 answered raw-exact" in out and "0 divergence(s)" in out
        assert main(["--seeds", "49"] + small[2:]) == 0  # too few seeds to judge


class _BrokenOracle(DifferentialOracle):
    """Stub whose evaluation 'fails' iff some doc still holds label `x`
    AND the query still has >= 2 nodes — exercises the shrinker without
    needing a real index bug."""

    def _evaluate_case(self, family, kind, docs, query):
        has_x = any(
            any(node.label == "x" for node in doc.preorder()) for doc in docs
        )
        big_query = sum(1 for _ in query.preorder()) >= 2
        if has_x and big_query:
            return [0], []  # divergence
        return [0], [0]


class TestShrinker:
    def test_shrinks_to_minimal_failing_case(self):
        oracle = _BrokenOracle()
        docs = []
        for i in range(4):
            doc = XmlNode("r")
            doc.element("a").element("b", text="t")
            if i == 2:
                doc.element("x")
            docs.append(doc)
        query = parse_xpath("/r[a/b][c]/d")
        shrunk_docs, shrunk_query = oracle._shrink("naive", "exact", docs, query)
        # only the document carrying `x` survives, stripped to the core
        assert len(shrunk_docs) == 1
        assert any(n.label == "x" for n in shrunk_docs[0].preorder())
        assert shrunk_docs[0].size() <= 2
        # the query is reduced to the minimum that still "fails"
        assert sum(1 for _ in shrunk_query.preorder()) == 2
