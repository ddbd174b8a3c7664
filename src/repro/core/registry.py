"""The system registry: every surveyed engine's profile, queryable along
the taxonomy's dimensions.  Table I and Table II are views over this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.core.dimensions import DataModel, SparkAbstraction


class SystemRegistry:
    """An ordered collection of engine classes keyed by profile."""

    def __init__(self, engine_classes: Sequence[type] = ()) -> None:
        self._classes: List[type] = []
        for cls in engine_classes:
            self.register(cls)

    def register(self, engine_class: type) -> None:
        profile = getattr(engine_class, "profile", None)
        if profile is None:
            raise ValueError(
                "%r has no profile attribute" % engine_class
            )
        if any(c.profile.name == profile.name for c in self._classes):
            raise ValueError("duplicate system name %r" % profile.name)
        self._classes.append(engine_class)

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self):
        return iter(self._classes)

    def classify(
        self,
        data_model: Optional[DataModel] = None,
        abstraction: Optional[SparkAbstraction] = None,
    ) -> List[type]:
        """Engines matching the requested taxonomy cell."""
        out = []
        for cls in self._classes:
            profile = cls.profile
            if data_model is not None and profile.data_model != data_model:
                continue
            if (
                abstraction is not None
                and abstraction not in profile.abstractions
            ):
                continue
            out.append(cls)
        return out

    def taxonomy_cells(self) -> Dict[tuple, List[str]]:
        """(abstraction, data model) -> citation list; Table I's content."""
        cells: Dict[tuple, List[str]] = {}
        for cls in self._classes:
            profile = cls.profile
            for abstraction in profile.abstractions:
                key = (abstraction, profile.data_model)
                cells.setdefault(key, []).append(profile.citation)
        return cells


def default_registry() -> SystemRegistry:
    """The registry holding exactly the paper's nine surveyed systems."""
    # Imported lazily: repro.systems imports repro.core.dimensions.
    from repro.systems import ALL_ENGINE_CLASSES

    return SystemRegistry(ALL_ENGINE_CLASSES)
