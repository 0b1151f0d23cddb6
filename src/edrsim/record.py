"""Base of edrsim's record classes: configs, interval stats, reports.

A record's fields are its `__init__`'s parameters, in order and each
annotated with its type; `_fields` names them. The CLI's JSON writer
writes a record as its `__dict__` (`cli._plain`), so a record that a
report holds keeps no attribute but its fields. Records of one class
with equal fields are equal; a record class that is hashed hashes them
(`_values`).
"""


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
