"""Immutable records: named tuples that compare like frozen dataclasses.

A record class derives from Record and from a collections.namedtuple
of its fields, and normalises its input, where it needs to, in __new__.
Its repr reads Name(field=value, ...), and assigning any attribute
raises AttributeError.  Unlike a plain named tuple, a record equals only
a record of its own class with equal fields, never a bare tuple or a
record of another class; it hashes as the tuple of its fields.  _make,
and so _replace, goes through the class's constructor, so a replaced
field is normalised as at construction.  A record class without
__slots__ = () keeps an instance dict, which only code that reads
__dict__ directly can write.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
