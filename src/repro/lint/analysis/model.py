"""Data model for the project-wide analysis engine.

Everything the engine learns about the codebase is normalised into the
small dataclasses below so the rule layer never touches raw AST nodes
from *other* files:

* :class:`Location` — a shared-state cell: a module-level name or a
  ``Class.attr`` instance attribute.  Race candidates are keyed by it.
* :class:`Access` — one read/write of a :class:`Location` inside a
  function, annotated with the lexical lockset held at the access.
* :class:`Callee` — how a call target was spelled, in a resolvable
  form; :class:`CallSite` adds where and under which locks.
* :class:`FunctionInfo` / :class:`ClassInfo` / :class:`ModuleInfo` —
  the per-module symbol table, including inferred attribute types and
  the set of mutable container attributes.
* :class:`SpawnSite` / :class:`ThreadRoot` — where threads, pool
  callbacks and sharded span runners are launched, and what runs there.

Lock names are canonicalised so the same lock observed from different
syntactic positions compares equal: ``self._lock`` inside class ``C``
of module ``pkg.mod`` becomes ``pkg.mod:C._lock``; a module-level
``_LOCK`` becomes ``pkg.mod:_LOCK``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Kinds of shared-state cells.
GLOBAL = "global"
ATTR = "attr"

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Location:
    """A shared-state cell addressable from more than one thread."""

    kind: str  # GLOBAL or ATTR
    owner: str  # module name (GLOBAL) or dotted class name (ATTR)
    name: str  # variable / attribute name

    def render(self) -> str:
        sep = ":" if self.kind == GLOBAL else "."
        return f"{self.owner}{sep}{self.name}"


@dataclass(frozen=True)
class Access:
    """One read or write of a :class:`Location` inside a function."""

    location: Location
    op: str  # READ or WRITE
    lockset: frozenset[str]
    path: str  # repo-relative file of the access
    line: int
    col: int
    in_constructor: bool = False


@dataclass(frozen=True)
class Callee:
    """How a call target was spelled, in a resolvable form.

    ``kind`` values:

    * ``"name"``   — ``foo(...)``; ``name`` is the bare identifier.
    * ``"self"``   — ``self.m(...)``; ``name`` is the method.
    * ``"typed"``  — ``obj.m(...)`` with ``obj``'s class inferred;
      ``receiver`` is the dotted class name, ``name`` the method.
    * ``"module"`` — ``mod.f(...)`` on an imported name; ``receiver``
      is the absolute dotted target, ``name`` the function.
    * ``"opaque"`` — unknown receiver; ``receiver`` is the unparsed
      receiver text (diagnostics only, never resolved).
    """

    kind: str
    name: str
    receiver: str | None = None


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    callee: Callee
    lockset: frozenset[str]
    path: str
    line: int
    col: int
    # Units of positional / keyword arguments (None = unknown), as
    # inferred from terminal-name suffixes.
    arg_units: tuple[str | None, ...] = ()
    kwarg_units: tuple[tuple[str, str | None], ...] = ()
    # Unit demanded by the binding target (``x_ms = call()``), if any.
    bound_unit: str | None = None
    bound_name: str | None = None


@dataclass(frozen=True)
class SpawnSite:
    """A thread or pool launch observed inside a function.

    ``kind`` is ``"thread"`` (``threading.Thread(target=...)``) or
    ``"pool"`` (``executor.submit(fn, ...)``).  ``target`` is None when
    the callable argument was not a resolvable name/method reference.  ``in_loop``
    is True when the launch sits inside a loop or comprehension, i.e.
    several instances of the target may run concurrently.
    """

    kind: str
    target: Callee | None
    path: str
    line: int
    in_loop: bool


@dataclass
class FunctionInfo:
    """A function or method discovered in the project."""

    qualname: str  # "pkg.mod:func", "pkg.mod:Class.meth", nested: parent + ".child"
    module: str
    cls: str | None  # owning dotted class name ("pkg.mod.Class") or None
    name: str
    path: str
    line: int
    params: tuple[str, ...] = ()
    accesses: list[Access] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    # Names of functions nested directly inside this one (for call
    # resolution of closures handed to thread pools).
    children: dict[str, "FunctionInfo"] = field(default_factory=dict)
    # Unit of the return value inferred from return expressions, or None.
    return_unit: str | None = None
    # When every meaningful return is a bare call, the callee — lets the
    # project phase propagate return units one call deep.
    return_call: Callee | None = None
    # True for __init__-like methods where the object is not yet shared.
    is_constructor: bool = False


@dataclass
class ClassInfo:
    """A class and what the engine inferred about its attributes."""

    qualname: str  # dotted: "pkg.mod.Class"
    module: str
    name: str
    path: str
    line: int
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    # Attribute name -> dotted class name of the value, when inferrable.
    attr_types: dict[str, str] = field(default_factory=dict)
    # Attributes initialised to mutable containers (dict/list/set/...).
    mutable_attrs: set[str] = field(default_factory=set)
    # Attributes whose initialiser looks like a lock.
    lock_attrs: set[str] = field(default_factory=set)
    # Every attribute ever assigned through ``self`` in this class.
    attr_universe: set[str] = field(default_factory=set)
    bases: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """Per-module slice of the project symbol table."""

    module: str
    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    # Bare name -> absolute dotted target for ``import``/``from`` forms.
    imports: dict[str, str] = field(default_factory=dict)
    # Module-level names bound to mutable containers.
    global_mutables: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ThreadRoot:
    """A function that runs on its own thread (or pool/span worker).

    ``multi`` is True when more than one concurrent instance of the
    root can exist: pool callbacks and span runners always, plain
    ``Thread`` targets when the spawn site sits inside a loop or
    comprehension.  Functions that *launch* concurrency are roots too
    (kind ``"spawner"``) — they keep running alongside their children —
    but are always single-instance.
    """

    function: str  # qualname of the root function
    kind: str  # "thread" | "pool" | "spawner"
    spawned_at: str  # "path:line" of the spawn site
    multi: bool
