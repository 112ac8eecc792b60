"""Frozen value records, without the import cost of the standard library's
record generator (which loads ``inspect``: about 10 ms per process).

A subclass of :class:`Record` declares its fields as annotations, in
order, with defaults as class attributes.  Each subclass gets its own
compiled ``__init__`` (positional or keyword arguments, then
``__post_init__`` when the class has one), equality of same-class
instances on their field tuples, a hash, and the repr
``Name(a=..., b=...)``.  Every record is frozen: assigning or deleting an
attribute raises AttributeError, and only ``object.__setattr__`` writes a
field.  A field whose name starts with ``_`` is a cache: it is left out of
equality, hash and repr.  The other field names are public, and they are
the JSON keys the command line writes for a record.  Methods the class
defines itself are kept.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        cls._compared = tuple(name for name in names if not name.startswith("_"))
        env, params = {"_set": object.__setattr__}, []
        for name in names:
            if name in cls.__dict__:
                env[f"_{name}_default"] = cls.__dict__[name]
                params.append(f"{name}=_{name}_default")
            else:
                params.append(name)
        body = [f"_set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        key = "".join(f"self.{name}, " for name in cls._compared)
        exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(body)}\n"
             "def __eq__(self, other):\n"
             " if other.__class__ is self.__class__:\n"
             f"  return ({key}) == ({key.replace('self.', 'other.')})\n"
             " return NotImplemented\n"
             f"def __hash__(self):\n return hash(({key}))\n", env)
        for method in ("__init__", "__eq__", "__hash__"):
            if method not in cls.__dict__:
                env[method].__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, env[method])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
