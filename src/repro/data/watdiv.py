"""A WatDiv-like e-commerce benchmark generator.

WatDiv (Waterloo SPARQL Diversity Test Suite) stresses engines with
structurally diverse queries over an e-commerce graph of users, products,
retailers and reviews.  This generator reproduces that schema shape: a
power-law-ish product popularity, user friendship edges (linear chains),
reviews connecting users to products, and retailer offers.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Term
from repro.rdf.vocab import RDF

#: The WatDiv-like vocabulary namespace.
WATDIV = Namespace("http://repro.example.org/watdiv#")


class WatdivGenerator:
    """Deterministic WatDiv-like data generator."""

    def __init__(
        self,
        num_users: int = 60,
        num_products: int = 30,
        num_retailers: int = 6,
        reviews_per_user: int = 2,
        friends_per_user: int = 2,
        seed: int = 7,
    ) -> None:
        self.num_users = num_users
        self.num_products = num_products
        self.num_retailers = num_retailers
        self.reviews_per_user = reviews_per_user
        self.friends_per_user = friends_per_user
        self.seed = seed

    def generate(self) -> RDFGraph:
        graph = RDFGraph()
        graph.add_rows(self._rows(random.Random(self.seed)))
        return graph

    def _rows(self, rng: random.Random) -> Iterator[Tuple[Term, Term, Term]]:
        """The triples as ``(s, p, o)`` term rows, in insertion order,
        every draw of *rng* made between the rows as it comes."""
        categories = [WATDIV["Category%d" % c] for c in range(5)]

        products = []
        for p in range(self.num_products):
            product = WATDIV["Product%d" % p]
            yield product, RDF.type, WATDIV.Product
            yield product, WATDIV.caption, Literal("Product %d" % p)
            yield product, WATDIV.hasCategory, rng.choice(categories)
            yield product, WATDIV.price, Literal(5 + rng.randrange(95))
            products.append(product)

        retailers = []
        for r in range(self.num_retailers):
            retailer = WATDIV["Retailer%d" % r]
            yield retailer, RDF.type, WATDIV.Retailer
            yield retailer, WATDIV.legalName, Literal("Retailer %d" % r)
            # Each retailer offers a random subset of products.
            for product in rng.sample(products, k=max(1, len(products) // 3)):
                yield retailer, WATDIV.offers, product
            retailers.append(retailer)

        users = []
        for u in range(self.num_users):
            user = WATDIV["User%d" % u]
            yield user, RDF.type, WATDIV.User
            yield user, WATDIV.name, Literal("User %d" % u)
            yield user, WATDIV.age, Literal(16 + rng.randrange(60))
            users.append(user)

        review_count = 0
        for u, user in enumerate(users):
            # Friendship edges, skewed toward nearby users (chains emerge).
            for _f in range(self.friends_per_user):
                friend = users[(u + 1 + rng.randrange(5)) % len(users)]
                if friend != user:
                    yield user, WATDIV.friendOf, friend
            # Reviews: power-law-ish product choice (popular head).
            for _r in range(self.reviews_per_user):
                index = min(
                    int(rng.paretovariate(1.2)) - 1, len(products) - 1
                )
                product = products[index]
                review = WATDIV["Review%d" % review_count]
                review_count += 1
                yield review, RDF.type, WATDIV.Review
                yield review, WATDIV.reviewer, user
                yield review, WATDIV.reviewFor, product
                yield review, WATDIV.rating, Literal(1 + rng.randrange(5))
                yield user, WATDIV.purchased, product

    # ------------------------------------------------------------------
    # Canonical query templates (WatDiv's S/L/F/C families)
    # ------------------------------------------------------------------

    @staticmethod
    def query_star() -> str:
        """S-family: product star."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?p ?cat ?price WHERE {
          ?p rdf:type wd:Product .
          ?p wd:hasCategory ?cat .
          ?p wd:price ?price .
        }
        """

    @staticmethod
    def query_linear() -> str:
        """L-family: friend-of-friend purchase chain."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        SELECT ?u ?f ?prod WHERE {
          ?u wd:friendOf ?f .
          ?f wd:purchased ?prod .
          ?prod wd:hasCategory ?cat .
        }
        """

    @staticmethod
    def query_snowflake() -> str:
        """F-family: review star joined to a product star."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?r ?u ?prod ?price WHERE {
          ?r rdf:type wd:Review .
          ?r wd:reviewer ?u .
          ?r wd:reviewFor ?prod .
          ?prod wd:price ?price .
          ?prod wd:hasCategory ?cat .
        }
        """

    @staticmethod
    def query_complex() -> str:
        """C-family: users who purchased a product a retailer offers."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        SELECT ?u ?ret ?prod WHERE {
          ?u wd:purchased ?prod .
          ?ret wd:offers ?prod .
          ?u wd:friendOf ?f .
        }
        """

    @staticmethod
    def query_bounded_predicate() -> str:
        """A single bounded-predicate pattern (vertical partitioning's case)."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        SELECT ?u ?f WHERE { ?u wd:friendOf ?f }
        """

    @staticmethod
    def query_unbounded_predicate() -> str:
        """A variable-predicate pattern (vertical partitioning's bad case)."""
        return """
        PREFIX wd: <http://repro.example.org/watdiv#>
        SELECT ?p ?o WHERE { wd:User0 ?p ?o }
        """

    @classmethod
    def all_queries(cls) -> dict:
        return {
            "star": cls.query_star(),
            "linear": cls.query_linear(),
            "snowflake": cls.query_snowflake(),
            "complex": cls.query_complex(),
            "bounded_predicate": cls.query_bounded_predicate(),
            "unbounded_predicate": cls.query_unbounded_predicate(),
        }
