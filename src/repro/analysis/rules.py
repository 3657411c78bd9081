"""The simlint rule registry: one small AST visitor per invariant.

Every rule is a subclass of :class:`Rule` registered under its ``SIMxxx``
code.  A rule sees one module at a time through a :class:`ModuleContext`
(path, parsed tree, raw lines) and appends :class:`Finding` records.  Rules
are deliberately *heuristic but low-noise*: each one targets a concrete way
a contributor can break seed-determinism or bit-reproducibility, and each
ships with firing and near-miss test fixtures (``tests/unit/test_simlint.py``).

Adding a rule: subclass :class:`Rule`, set ``rule_id``/``summary``, implement
the relevant ``visit_*`` methods, decorate with :func:`register`, and add it
to the catalog in ``docs/static-analysis.md`` plus both test fixtures.

Path scoping conventions (see :class:`ModuleContext` helpers):

* test and benchmark code is exempt from the runtime-determinism rules —
  tests may read clocks and draw ad-hoc randomness;
* ``SIM003`` only applies inside the ordering-sensitive packages
  (``simulation/``, ``core/``, ``fleet/``, ``faults/``) where iteration
  order feeds event scheduling or routing/placement decisions;
* ``SIM002``/``SIM007`` carry explicit allowlists for the modules whose job
  *is* wall-clock timing (``obs/profiler.py``) or process configuration
  (``cli.py``).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.findings import Finding

#: Packages whose iteration order can feed event scheduling or routing /
#: placement decisions (SIM003's scope).
ORDER_SENSITIVE_DIRS = ("simulation/", "core/", "fleet/", "faults/")

#: Modules allowed to read the wall clock (SIM002): the CLI entry point and
#: the observability phase profiler, which attributes wall time (never armed
#: by the simulation itself — only the benchmark's traced run attaches it);
#: benchmarks measure it.
WALL_CLOCK_ALLOWLIST = ("cli.py", "obs/profiler.py")
WALL_CLOCK_ALLOWED_DIRS = ("benchmarks/",)

#: Modules allowed to read process environment (SIM007): the CLI and
#: explicit configuration modules.  Everything else must take configuration
#: as arguments so runs are reproducible from their inputs alone.
ENVIRON_ALLOWLIST = ("cli.py",)
ENVIRON_ALLOWED_SUFFIXES = ("config.py",)

#: Stdlib ``random`` module-level functions that draw from (or reseed) the
#: shared global Mersenne state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` legacy global-state API (anything that is not the
#: Generator construction surface).
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"})

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time", "time.clock_gettime",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
        "datetime.date.today", "date.today",
    }
)

_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "schedule_after", "schedule_recurring"})

#: Names/suffixes that mark an expression as a simulated-time value (SIM006).
_TIME_NAME_EXACT = frozenset({"now", "_now", "time", "time_s", "deadline", "deadline_s"})
_TIME_NAME_SUFFIXES = ("_time", "_time_s", "_deadline_s")


class ModuleContext:
    """Everything a rule needs to know about the module being linted."""

    def __init__(self, path: str, tree: ast.Module, lines: list[str]) -> None:
        self.path = path.replace("\\", "/")
        self.tree = tree
        self.lines = lines

    @property
    def is_test_code(self) -> bool:
        """Test/benchmark/example code: exempt from runtime-determinism rules."""
        parts = self.path.split("/")
        if any(part in ("tests", "benchmarks", "examples") for part in parts[:-1]):
            return True
        name = parts[-1]
        return name.startswith("test_") or name == "conftest.py"

    @property
    def is_analysis_tooling(self) -> bool:
        """The linter/sanitizer package itself (dev tooling, not simulation)."""
        return "/analysis/" in self.path or self.path.startswith("analysis/")

    def in_dirs(self, dirs: tuple[str, ...]) -> bool:
        """Whether the module lives under any of the given directory names."""
        return any(f"/{d}" in self.path or self.path.startswith(d) for d in dirs)

    def endswith_any(self, suffixes: tuple[str, ...]) -> bool:
        return any(self.path.endswith(s) for s in suffixes)


class Rule(ast.NodeVisitor):
    """Base class for simlint rules: a per-module AST visitor."""

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, ctx: ModuleContext) -> bool:
        """Path-level gate; rules override to scope themselves."""
        return not ctx.is_test_code

    def run(self) -> list[Finding]:
        """Visit the module and return this rule's findings."""
        self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str, hint: str = "") -> None:
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=hint,
            )
        )


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (keyed by ``rule_id``)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULE_REGISTRY[cls.rule_id] = cls
    return cls


def dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of an attribute chain (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class UnseededRandomness(Rule):
    """SIM001: randomness must come from an explicitly seeded generator.

    Fires on global-state draws (``random.random()``, legacy
    ``np.random.rand()``), on unseeded generator construction
    (``np.random.default_rng()`` / ``random.Random()`` with no seed
    expression), and — inside the ordering-sensitive packages — on *seeded*
    stdlib ``random.Random`` streams, which are accepted only with a
    baseline justification (the repo's RNG seams are ``np.random.Generator``
    based; a justified stdlib stream must say why).
    """

    rule_id = "SIM001"
    summary = "unseeded or global-state randomness"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            self._check_named_call(node, name)
        self.generic_visit(node)

    def _check_named_call(self, node: ast.Call, name: str) -> None:
        if name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
            self.report(
                node,
                f"call to the global stdlib RNG ({name}) — state is shared and unseeded",
                "draw from an explicitly seeded np.random.Generator threaded from the caller",
            )
            return
        if name in ("np.random.default_rng", "numpy.random.default_rng", "default_rng"):
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "default_rng() without a seed gives a fresh OS-entropy stream",
                    "pass an explicit seed expression, e.g. default_rng(config.seed)",
                )
            return
        if name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                self.report(
                    node,
                    f"legacy numpy global-state RNG call ({name})",
                    "use an explicitly seeded np.random.Generator instead",
                )
            return
        if name in ("random.Random", "random.SystemRandom"):
            if name.endswith("SystemRandom") or (not node.args and not node.keywords):
                self.report(
                    node,
                    f"{name}() without an explicit seed expression",
                    "pass a seed derived from the run configuration",
                )
            elif self.ctx.in_dirs(ORDER_SENSITIVE_DIRS):
                self.report(
                    node,
                    "seeded stdlib random.Random stream in a simulation-critical module",
                    "migrate to np.random.Generator, or justify the stream in the baseline",
                )


@register
class WallClockRead(Rule):
    """SIM002: simulated components must never read the wall clock."""

    rule_id = "SIM002"
    summary = "wall-clock read outside the timing allowlist"

    @classmethod
    def applies_to(cls, ctx: ModuleContext) -> bool:
        if ctx.is_test_code or ctx.in_dirs(WALL_CLOCK_ALLOWED_DIRS):
            return False
        return not ctx.endswith_any(WALL_CLOCK_ALLOWLIST)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock read ({name}) in simulated code",
                "use engine.now for simulated time; wall-clock measurement belongs in perfbench/",
            )
        self.generic_visit(node)


class _SetTracker(ast.NodeVisitor):
    """Collects names/attributes statically known to hold a set.

    Tracks plain assignments from set displays/comprehensions and
    ``set()``/``frozenset()`` calls, plus ``set[...]`` annotations — for both
    local names and ``self.<attr>`` attributes.
    """

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    def _target_key(self, target: ast.AST) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    def _note(self, target: ast.AST, is_set: bool) -> None:
        key = self._target_key(target)
        if key is None:
            return
        if is_set:
            self.set_names.add(key)
        else:
            self.set_names.discard(key)  # rebound to something else

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note(target, is_set_expr(node.value, self.set_names))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotated_set = _is_set_annotation(node.annotation)
        value_set = node.value is not None and is_set_expr(node.value, self.set_names)
        self._note(node.target, annotated_set or value_set)
        self.generic_visit(node)


def _is_set_annotation(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation: "set[int]"
        head = annotation.value.split("[", 1)[0].strip()
        return head in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")
    name = dotted_name(annotation)
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")


def is_set_expr(node: ast.AST, known_sets: set[str]) -> bool:
    """Whether ``node`` statically evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        # set-producing expressions that preserve setness: s.union(...), a | b
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return is_set_expr(node.left, known_sets) or is_set_expr(node.right, known_sets)
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return f"self.{node.attr}" in known_sets
    return False


@register
class SetOrderingHazard(Rule):
    """SIM003: iterating a set where order can reach scheduling decisions.

    Python set iteration order depends on ``PYTHONHASHSEED`` (for str keys)
    and insertion history; inside the event-scheduling and routing packages
    that silently changes event order between runs.  Wrap the iteration in
    ``sorted(...)`` with a deterministic key, or keep an insertion-ordered
    list/dict next to the set (the ``MachinePool`` pattern).
    """

    rule_id = "SIM003"
    summary = "set iteration order feeding simulation decisions"

    def __init__(self, ctx: ModuleContext) -> None:
        super().__init__(ctx)
        tracker = _SetTracker()
        tracker.visit(ctx.tree)
        self._known_sets = tracker.set_names

    @classmethod
    def applies_to(cls, ctx: ModuleContext) -> bool:
        if ctx.is_test_code or ctx.is_analysis_tooling:
            return False
        return ctx.in_dirs(ORDER_SENSITIVE_DIRS)

    def _check_iterable(self, node: ast.AST, where: str) -> None:
        if is_set_expr(node, self._known_sets):
            self.report(
                node,
                f"{where} iterates a set — order depends on the hash seed",
                "wrap in sorted(..., key=...) or iterate an insertion-ordered companion list",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Iterating a set into another set keeps it unordered: harmless.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("list", "tuple", "iter", "enumerate", "next") and node.args:
            self._check_iterable(node.args[0], f"{name}()")
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and is_set_expr(node.func.value, self._known_sets)
        ):
            self.report(
                node,
                "set.pop() removes an arbitrary, hash-seed-dependent element",
                "pop from a deterministic structure (list/deque) or sort first",
            )
        self.generic_visit(node)


@register
class EventPriorityDiscipline(Rule):
    """SIM004: ``engine.schedule*(...)`` must name its priority.

    The same-timestamp priority ladder is centralized in
    ``repro/simulation/events.py``; a bare integer at a call site silently
    re-derives the ladder and rots when it changes.
    """

    rule_id = "SIM004"
    summary = "bare integer event priority"

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SCHEDULE_METHODS:
            for keyword in node.keywords:
                if keyword.arg == "priority":
                    self._check_priority(keyword.value)
        self.generic_visit(node)

    def _check_priority(self, value: ast.AST) -> None:
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            self.report(
                value,
                f"bare integer event priority {value.value}",
                "pass a named *_PRIORITY constant from repro.simulation.events",
            )
            return
        name = dotted_name(value)
        if name is None:
            return  # computed priority: assume the expression names its inputs
        leaf = name.rsplit(".", 1)[-1]
        if not (leaf.endswith("_PRIORITY") or leaf.endswith("PRIORITY") or leaf == "priority"):
            self.report(
                value,
                f"event priority {name!r} is not a named *_PRIORITY constant",
                "alias it to a *_PRIORITY name or use repro.simulation.events constants",
            )


@register
class FrozenConfigMutation(Rule):
    """SIM005: ``object.__setattr__`` may only bypass frozenness on ``self``.

    Frozen dataclasses (configs, events) are frozen so shared state cannot
    drift mid-run.  The declaring class may use ``object.__setattr__(self,
    ...)`` in narrow helpers (``Event._mark_cancelled``); reaching into
    *another* object's frozen state breaks the contract invisibly.
    """

    rule_id = "SIM005"
    summary = "frozen-instance mutation from outside the declaring class"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("object.__setattr__", "object.__delattr__") and node.args:
            first = node.args[0]
            if not (isinstance(first, ast.Name) and first.id == "self"):
                self.report(
                    node,
                    f"{name} on a foreign instance mutates frozen state from outside its class",
                    "add a narrow mutation helper on the owning class instead",
                )
        self.generic_visit(node)


@register
class ExactTimeComparison(Rule):
    """SIM006: simulated-time floats must not be compared with ``==``/``!=``.

    Two independently computed simulated times that are *intended* to
    coincide differ in the last ulp often enough that exact comparison is a
    latent ordering bug; use a tolerance or compare event identities.
    Comparisons against literal sentinels (``0.0``, ``-1.0``) and ``None``
    are exempt — those are state flags, not computed times.
    """

    rule_id = "SIM006"
    summary = "exact == on simulated-time floats"

    @staticmethod
    def _is_time_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            leaf = node.attr
        elif isinstance(node, ast.Name):
            leaf = node.id
        else:
            return False
        return leaf in _TIME_NAME_EXACT or leaf.endswith(_TIME_NAME_SUFFIXES)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for a, b in ((left, right), (right, left)):
                if self._is_time_expr(a) and not isinstance(b, ast.Constant):
                    self.report(
                        node,
                        "exact ==/!= comparison of simulated-time values",
                        "compare with a tolerance (math.isclose) or compare identities",
                    )
                    break
        self.generic_visit(node)


@register
class EnvironRead(Rule):
    """SIM007: environment reads belong in the CLI / config layer.

    A component that reads ``os.environ`` mid-stack takes hidden input: two
    runs with identical arguments can differ.  Thread configuration through
    constructors; the narrow debug/perf toggles that genuinely must stay
    env-driven carry inline ``# simlint: disable=SIM007`` pragmas with their
    justification.
    """

    rule_id = "SIM007"
    summary = "os.environ read outside the CLI/config layer"

    @classmethod
    def applies_to(cls, ctx: ModuleContext) -> bool:
        if ctx.is_test_code or ctx.is_analysis_tooling:
            return False
        return not (ctx.endswith_any(ENVIRON_ALLOWLIST) or ctx.endswith_any(ENVIRON_ALLOWED_SUFFIXES))

    def _report_env(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} read outside the CLI/config layer",
            "thread the setting through a constructor argument, or pragma with a justification",
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("os.getenv", "os.environ.get"):
            self._report_env(node, name)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if dotted_name(node.value) == "os.environ":
            self._report_env(node, "os.environ[...]")
        self.generic_visit(node)


def iter_rules(ctx: ModuleContext) -> Iterator[Rule]:
    """Instantiate every registered rule that applies to ``ctx``."""
    for rule_id in sorted(RULE_REGISTRY):
        cls = RULE_REGISTRY[rule_id]
        if cls.applies_to(ctx):
            yield cls(ctx)
