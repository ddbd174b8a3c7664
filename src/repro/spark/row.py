"""Row: a named tuple of column values, mirroring ``pyspark.sql.Row``."""

from __future__ import annotations

from typing import Any, Sequence


class Row:
    """An immutable record with named fields.

    Supports access by field name (``row["s"]``) and by position
    (``row[0]``) and equality by (fields, values).
    """

    __slots__ = ("_fields", "_values")

    def __init__(self, fields: Sequence[str], values: Sequence[Any]) -> None:
        if len(fields) != len(values):
            raise ValueError(
                "Row needs as many values as fields: %r vs %r" % (fields, values)
            )
        object.__setattr__(self, "_fields", tuple(fields))
        object.__setattr__(self, "_values", tuple(values))

    def __getitem__(self, key: object) -> Any:
        if isinstance(key, int):
            return self._values[key]
        if isinstance(key, str):
            try:
                return self._values[self._fields.index(key)]
            except ValueError:
                raise KeyError(key) from None
        raise TypeError("Row indices must be int or str, not %r" % type(key))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Row is immutable")

    def __reduce__(self):
        return (Row, (self._fields, self._values))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Row)
            and self._fields == other._fields
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._fields, self._values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            "%s=%r" % (f, v) for f, v in zip(self._fields, self._values)
        )
        return "Row(%s)" % pairs
