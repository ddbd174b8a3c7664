"""A LUBM-like university benchmark generator.

Mirrors the structure of the Lehigh University Benchmark (the dataset most
of the surveyed systems evaluate on): universities contain departments;
departments employ professors and enrol students; professors teach courses
and author publications; students take courses and have advisors.  The
generator is deterministic for a fixed seed and scales linearly with
``num_universities``.

A small RDFS TBox (subclass and domain/range axioms) is included so the
reasoner and the class-index systems (SparkRDF) have schema to work with.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Term, URI
from repro.rdf.triple import Triple
from repro.rdf.vocab import RDF, RDFS

#: The LUBM-like vocabulary namespace.
LUBM = Namespace("http://repro.example.org/lubm#")


class LubmGenerator:
    """Deterministic LUBM-like data generator.

    Parameters scale the graph: each university gets ``departments_per_university``
    departments, each department ``professors_per_department`` professors and
    ``students_per_department`` students, and so on.
    """

    def __init__(
        self,
        num_universities: int = 2,
        departments_per_university: int = 3,
        professors_per_department: int = 4,
        students_per_department: int = 12,
        courses_per_department: int = 5,
        publications_per_professor: int = 2,
        seed: int = 42,
    ) -> None:
        self.num_universities = num_universities
        self.departments_per_university = departments_per_university
        self.professors_per_department = professors_per_department
        self.students_per_department = students_per_department
        self.courses_per_department = courses_per_department
        self.publications_per_professor = publications_per_professor
        self.seed = seed

    # ------------------------------------------------------------------

    def tbox(self) -> List[Triple]:
        """Schema triples: class hierarchy plus domain/range axioms."""
        triples = []
        subclass_pairs = [
            (LUBM.FullProfessor, LUBM.Professor),
            (LUBM.AssociateProfessor, LUBM.Professor),
            (LUBM.AssistantProfessor, LUBM.Professor),
            (LUBM.Professor, LUBM.Faculty),
            (LUBM.Faculty, LUBM.Person),
            (LUBM.GraduateStudent, LUBM.Student),
            (LUBM.UndergraduateStudent, LUBM.Student),
            (LUBM.Student, LUBM.Person),
            (LUBM.Department, LUBM.Organization),
            (LUBM.University, LUBM.Organization),
        ]
        for sub, sup in subclass_pairs:
            triples.append(Triple(sub, RDFS.subClassOf, sup))
        domain_range = [
            (LUBM.worksFor, LUBM.Faculty, LUBM.Department),
            (LUBM.memberOf, LUBM.Person, LUBM.Department),
            (LUBM.advisor, LUBM.Student, LUBM.Professor),
            (LUBM.takesCourse, LUBM.Student, LUBM.Course),
            (LUBM.teacherOf, LUBM.Faculty, LUBM.Course),
            (LUBM.publicationAuthor, LUBM.Publication, LUBM.Faculty),
            (LUBM.subOrganizationOf, LUBM.Organization, LUBM.Organization),
        ]
        for prop, domain, range_ in domain_range:
            triples.append(Triple(prop, RDFS.domain, domain))
            triples.append(Triple(prop, RDFS.range, range_))
        return triples

    def generate(self, include_tbox: bool = False) -> RDFGraph:
        """Build the instance graph (optionally with the TBox)."""
        graph = RDFGraph()
        if include_tbox:
            graph.add_all(self.tbox())
        graph.add_rows(self._rows(random.Random(self.seed)))
        return graph

    def _rows(self, rng: random.Random) -> Iterator[Tuple[Term, Term, Term]]:
        """The instance triples as ``(s, p, o)`` term rows, in insertion
        order, every draw of *rng* made between the rows as it comes."""
        professor_kinds = (
            LUBM.FullProfessor,
            LUBM.AssociateProfessor,
            LUBM.AssistantProfessor,
        )

        for u in range(self.num_universities):
            university = LUBM["University%d" % u]
            yield university, RDF.type, LUBM.University
            yield university, LUBM.name, Literal("University %d" % u)
            for d in range(self.departments_per_university):
                department = LUBM["Department%d_%d" % (u, d)]
                yield department, RDF.type, LUBM.Department
                yield department, LUBM.subOrganizationOf, university
                yield department, LUBM.name, Literal(
                    "Department %d of University %d" % (d, u)
                )

                courses = []
                for c in range(self.courses_per_department):
                    course = LUBM["Course%d_%d_%d" % (u, d, c)]
                    yield course, RDF.type, LUBM.Course
                    yield course, LUBM.name, Literal("Course %d" % c)
                    courses.append(course)

                professors = []
                for p in range(self.professors_per_department):
                    professor = LUBM["Professor%d_%d_%d" % (u, d, p)]
                    kind = professor_kinds[p % len(professor_kinds)]
                    yield professor, RDF.type, kind
                    yield professor, LUBM.worksFor, department
                    yield professor, LUBM.name, Literal(
                        "Professor %d.%d.%d" % (u, d, p)
                    )
                    yield professor, LUBM.emailAddress, Literal(
                        "prof%d_%d_%d@uni%d.edu" % (u, d, p, u)
                    )
                    taught = rng.sample(
                        courses, k=min(2, len(courses))
                    )
                    for course in taught:
                        yield professor, LUBM.teacherOf, course
                    for pub in range(self.publications_per_professor):
                        publication = LUBM[
                            "Publication%d_%d_%d_%d" % (u, d, p, pub)
                        ]
                        yield publication, RDF.type, LUBM.Publication
                        yield publication, LUBM.publicationAuthor, professor
                    professors.append(professor)

                for s in range(self.students_per_department):
                    student = LUBM["Student%d_%d_%d" % (u, d, s)]
                    graduate = rng.random() < 0.3
                    kind = (
                        LUBM.GraduateStudent
                        if graduate
                        else LUBM.UndergraduateStudent
                    )
                    yield student, RDF.type, kind
                    yield student, LUBM.memberOf, department
                    yield student, LUBM.name, Literal(
                        "Student %d.%d.%d" % (u, d, s)
                    )
                    yield student, LUBM.age, Literal(18 + rng.randrange(12))
                    if graduate and professors:
                        yield student, LUBM.advisor, rng.choice(professors)
                    for course in rng.sample(
                        courses, k=min(3, len(courses))
                    ):
                        yield student, LUBM.takesCourse, course

    # ------------------------------------------------------------------
    # Canonical query texts (one per shape family)
    # ------------------------------------------------------------------

    @staticmethod
    def query_star() -> str:
        """Star: all patterns join on the subject ?s (graduate students)."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?d ?a WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:memberOf ?d .
          ?s lubm:age ?a .
        }
        """

    @staticmethod
    def query_linear() -> str:
        """Linear: student -> advisor -> department -> university chain."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        SELECT ?s ?p ?dep ?uni WHERE {
          ?s lubm:advisor ?p .
          ?p lubm:worksFor ?dep .
          ?dep lubm:subOrganizationOf ?uni .
        }
        """

    @staticmethod
    def query_snowflake() -> str:
        """Snowflake: a student star and a professor star linked by advisor."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?d ?p ?c WHERE {
          ?s rdf:type lubm:GraduateStudent .
          ?s lubm:memberOf ?d .
          ?s lubm:advisor ?p .
          ?p lubm:worksFor ?d2 .
          ?p lubm:teacherOf ?c .
        }
        """

    @staticmethod
    def query_complex() -> str:
        """Complex: object-object join (same course taken and taught)."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        SELECT ?s ?p ?c WHERE {
          ?s lubm:takesCourse ?c .
          ?p lubm:teacherOf ?c .
          ?s lubm:advisor ?p .
        }
        """

    @staticmethod
    def query_filter() -> str:
        """BGP+ example with FILTER and ORDER BY."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?a WHERE {
          ?s rdf:type lubm:UndergraduateStudent .
          ?s lubm:age ?a .
          FILTER(?a >= 25)
        } ORDER BY DESC(?a) LIMIT 20
        """

    @staticmethod
    def query_optional() -> str:
        """BGP+ example with OPTIONAL (students without advisors kept)."""
        return """
        PREFIX lubm: <http://repro.example.org/lubm#>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        SELECT ?s ?p WHERE {
          ?s lubm:memberOf ?d .
          OPTIONAL { ?s lubm:advisor ?p }
        }
        """

    @classmethod
    def all_queries(cls) -> dict:
        """Name -> SPARQL text for the full canonical workload."""
        return {
            "star": cls.query_star(),
            "linear": cls.query_linear(),
            "snowflake": cls.query_snowflake(),
            "complex": cls.query_complex(),
            "filter": cls.query_filter(),
            "optional": cls.query_optional(),
        }
