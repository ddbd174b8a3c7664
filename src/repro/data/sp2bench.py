"""An SP²Bench-like bibliographic benchmark generator.

SP²Bench (the SPARQL Performance Benchmark) models DBLP: articles appear
in journals, are written by authors, and cite each other; inproceedings
belong to conference proceedings.  Several of the surveyed systems (S2X,
S2RDF) were evaluated on it; this generator reproduces its join structure
-- deep citation chains (linear queries), wide author stars, and the
famous "articles with the same author set" complex joins.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Term
from repro.rdf.vocab import RDF

#: The SP2Bench-like vocabulary namespace.
SP2B = Namespace("http://repro.example.org/sp2b#")


class Sp2bGenerator:
    """Deterministic DBLP-like data generator."""

    def __init__(
        self,
        num_articles: int = 40,
        num_authors: int = 25,
        num_journals: int = 6,
        citations_per_article: int = 3,
        authors_per_article: int = 2,
        seed: int = 11,
    ) -> None:
        self.num_articles = num_articles
        self.num_authors = num_authors
        self.num_journals = num_journals
        self.citations_per_article = citations_per_article
        self.authors_per_article = authors_per_article
        self.seed = seed

    def generate(self) -> RDFGraph:
        graph = RDFGraph()
        graph.add_rows(self._rows(random.Random(self.seed)))
        return graph

    def _rows(self, rng: random.Random) -> Iterator[Tuple[Term, Term, Term]]:
        """The triples as ``(s, p, o)`` term rows, in insertion order,
        every draw of *rng* made between the rows as it comes."""
        authors = []
        for a in range(self.num_authors):
            person = SP2B["Author%d" % a]
            yield person, RDF.type, SP2B.Person
            yield person, SP2B.name, Literal("Author %d" % a)
            authors.append(person)

        journals = []
        for j in range(self.num_journals):
            journal = SP2B["Journal%d" % j]
            yield journal, RDF.type, SP2B.Journal
            yield journal, SP2B.title, Literal("Journal %d" % j)
            journals.append(journal)

        articles = []
        for i in range(self.num_articles):
            article = SP2B["Article%d" % i]
            yield article, RDF.type, SP2B.Article
            yield article, SP2B.title, Literal("Article %d" % i)
            yield article, SP2B.year, Literal(1990 + rng.randrange(30))
            yield article, SP2B.journal, rng.choice(journals)
            yield article, SP2B.pages, Literal(1 + rng.randrange(40))
            for author in rng.sample(
                authors, k=min(self.authors_per_article, len(authors))
            ):
                yield article, SP2B.creator, author
            # Citations point strictly backwards: an acyclic citation DAG
            # with chains, like real bibliographies.
            if articles:
                for cited in rng.sample(
                    articles,
                    k=min(self.citations_per_article, len(articles)),
                ):
                    yield article, SP2B.cites, cited
            articles.append(article)

    # ------------------------------------------------------------------
    # Canonical queries (mirroring SP2Bench's Q families)
    # ------------------------------------------------------------------

    @staticmethod
    def query_article_star() -> str:
        """Q2-like: all properties of every article (star)."""
        return """
        PREFIX sp2b: <http://repro.example.org/sp2b#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?a ?t ?y ?j WHERE {
          ?a rdf:type sp2b:Article .
          ?a sp2b:title ?t .
          ?a sp2b:year ?y .
          ?a sp2b:journal ?j .
        }
        """

    @staticmethod
    def query_citation_chain() -> str:
        """Q4-like: two-hop citation chains (linear)."""
        return """
        PREFIX sp2b: <http://repro.example.org/sp2b#>
        SELECT ?a ?b ?c WHERE {
          ?a sp2b:cites ?b .
          ?b sp2b:cites ?c .
        }
        """

    @staticmethod
    def query_coauthors() -> str:
        """Q5-like: pairs of authors of the same article (object-object)."""
        return """
        PREFIX sp2b: <http://repro.example.org/sp2b#>
        SELECT ?x ?y ?a WHERE {
          ?a sp2b:creator ?x .
          ?a sp2b:creator ?y .
          FILTER(?x != ?y)
        }
        """

    @staticmethod
    def query_recent_articles() -> str:
        """Q3-like: FILTER on a data property with ORDER BY."""
        return """
        PREFIX sp2b: <http://repro.example.org/sp2b#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?a ?y WHERE {
          ?a rdf:type sp2b:Article .
          ?a sp2b:year ?y .
          FILTER(?y >= 2010)
        } ORDER BY DESC(?y)
        """

    @staticmethod
    def query_journal_snowflake() -> str:
        """Q6-like: article star joined to its journal's properties."""
        return """
        PREFIX sp2b: <http://repro.example.org/sp2b#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?a ?t ?j ?jt WHERE {
          ?a rdf:type sp2b:Article .
          ?a sp2b:title ?t .
          ?a sp2b:journal ?j .
          ?j rdf:type sp2b:Journal .
          ?j sp2b:title ?jt .
        }
        """

    @classmethod
    def all_queries(cls) -> dict:
        return {
            "article_star": cls.query_article_star(),
            "citation_chain": cls.query_citation_chain(),
            "coauthors": cls.query_coauthors(),
            "recent_articles": cls.query_recent_articles(),
            "journal_snowflake": cls.query_journal_snowflake(),
        }
