"""One label type for every name the tables are indexed by.

A label is a frozen ``(kind, index)`` pair.  Each family, the classes
(``grp.ClassLabel``), complex characters (``chars.CharLabel``), real
characters (``realrep.RealCharLabel``) and cyclic subgroups
(``fixdim.SubgroupKey``), subclasses ``_Label`` and declares only its
name table ``_NAMES = {kind: (text, latex, first index)}``.  ``text``
and ``latex`` are format strings whose ``{}`` takes the index, so literal
braces are doubled.  ``first`` is None for a kind without an index; an
indexed kind takes first, first + _STEP, first + 2*_STEP, ...  Labels of
different families never compare equal, whatever their kind and index.

>>> from sl2q.grp import ClassLabel
>>> ClassLabel.parse("a^3"), str(ClassLabel("a", 3)), ClassLabel("a", 3).latex()
(ClassLabel(kind='a', index=3), 'a^3', '$a^{3}$')
>>> ClassLabel.spell("a", 3), ClassLabel.spell("zc", latex=True)
('a^3', '$zc$')
"""
from __future__ import annotations

import re
from operator import attrgetter

# an indexed name: the text before the index, the index (no sign, no
# leading zero) and a tail without digits
_INDEXED = re.compile(r"(.*?)(0|[1-9][0-9]*)(\D*)")

_set = object.__setattr__


class _Record:
    """A frozen record of ``_FIELDS`` (also its ``__slots__``), built
    positionally, equal only within its class, pickled by ``__reduce__``."""
    __slots__ = _FIELDS = ()

    def __init_subclass__(cls):
        # the field tuple in one call (no method: self._values(self))
        cls._values = attrgetter(*cls._FIELDS)

    def __init__(self, *values):
        for name, value in zip(self._FIELDS, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = map("{}={!r}".format, self._FIELDS, self._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values(self)


class _Label(_Record):
    __slots__ = _FIELDS = ("kind", "index")
    # dict keys on every path: __init__, == and hash are written out below
    _NAMES = {}   # kind -> (text, latex, first index or None)
    _STEP = 1

    def __init_subclass__(cls):
        # the name table read backwards: a kind without an index by its
        # text, an indexed kind by the text around its index
        cls._PARSE = {text if first is None else tuple(text.split("{}")): kind
                      for kind, (text, _, first) in cls._NAMES.items()}

    def __init__(self, kind: str, index: int = 0):
        _set(self, "kind", kind)
        _set(self, "index", index)
        name = self._NAMES.get(kind)
        if name is None:
            raise ValueError(f"unknown {type(self).__name__} kind {kind!r}")
        first = name[2]
        if first is None:
            if index:
                raise ValueError(f"{self!r}: kind {kind!r} takes no index")
        elif index < first or (index - first) % self._STEP:
            raise ValueError(f"{self!r}: kind {kind!r} takes the index "
                             f"{first}, {first + self._STEP}, ...")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.index))

    @classmethod
    def spell(cls, kind: str, index: int = 0, latex: bool = False) -> str:
        """The name of the label (kind, index), without building it: its
        ``str``, or with ``latex`` its ``latex()``."""
        text, tex, _ = cls._NAMES[kind]
        return f"${tex.format(index)}$" if latex else text.format(index)

    def __str__(self):
        return self.spell(self.kind, self.index)

    def latex(self) -> str:
        """The name in LaTeX math mode, dollars included."""
        return self.spell(self.kind, self.index, latex=True)

    @classmethod
    def parse(cls, s: str):
        """The label whose ``str`` is ``s``; ValueError for any other string."""
        kind = cls._PARSE.get(s)
        if kind is not None:
            return cls(kind)
        m = _INDEXED.fullmatch(s)
        kind = m and cls._PARSE.get((m[1], m[3]))
        if kind is None:
            raise ValueError(f"cannot parse {cls.__name__} {s!r}")
        return cls(kind, int(m[2]))   # which checks the index
