"""The lint rule catalogue and the single-pass AST checker.

Each rule has a kebab-case id (the token used by ``# lint:
disable=<id>``), a scope (which files it applies to) and a one-line
summary.  The checker walks one module's AST once and dispatches to
every in-scope rule, emitting :class:`Violation` records.

Scopes
------

* ``all`` — every linted file;
* ``sim-path`` — code that executes *inside* a simulation (the
  coherence protocol, the HTM machinery, the network and the event
  engine): everything under ``coherence/``, ``core/``, ``htm/``,
  ``network/`` plus ``sim/engine.py``;
* ``pickle-boundary`` — modules whose objects cross process
  boundaries (``analysis/parallel.py``, ``sim/resultcache.py``);
* ``hot-path`` — modules whose objects are allocated or touched per
  message/event (everything under ``network/``, ``sim/`` and
  ``coherence/``);
* ``event-path`` — the named modules whose *functions* execute once
  per message or event (the engine loop, send/deliver, the protocol
  handlers): per-event allocation, str-keyed counting and folded
  stats views are flagged there;
* ``orchestration`` — code that supervises long runs (``analysis/``
  and ``sim/``): a silently swallowed exception there turns a crashed
  sweep cell or a corrupted cache entry into quietly wrong results.

Files that are *not* part of the ``repro`` package (e.g. test
fixtures) are linted under the strictest scope: every rule applies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

# ---------------------------------------------------------------------
# rule catalogue
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One lint rule: id, applicability scope and summary.

    ``rationale`` (``repro lint --explain <id>``) is the long-form
    why: what breaks when the rule is violated, and what the
    sanctioned alternative is.
    """

    id: str
    scope: str  # 'all' | 'sim-path' | 'pickle-boundary' | ...
    summary: str
    rationale: str = ""


RULES: Tuple[Rule, ...] = (
    Rule("sim-rng", "all",
         "use repro.sim.rng streams, never the random module, id() or "
         "hash() directly"),
    Rule("wall-clock", "all",
         "simulated time is Simulator.now; no time.time()/datetime.now()"),
    Rule("set-iteration", "all",
         "iteration order over sets is unordered; sort before iterating"),
    Rule("pickle-safe", "pickle-boundary",
         "no lambdas, nested defs, bound methods or live simulation "
         "objects in process-boundary modules' worker submissions"),
    Rule("float-eq", "all",
         "no float == / != on latency or cycle math"),
    Rule("mutable-default", "all",
         "no mutable default argument values"),
    Rule("int-cycles", "all",
         "event delays must be integer expressions (no / or float literals)"),
    Rule("sim-print", "sim-path",
         "sim-path code reports through Stats/Tracer, never print()"),
    Rule("sim-env", "sim-path",
         "no os.environ reads inside sim-path functions (read at import "
         "or pass through config)"),
    Rule("bare-except", "all",
         "no bare except: clauses (name the exception type)"),
    Rule("dataclass-slots", "hot-path",
         "hot-path dataclasses must declare slots (slots=True or "
         "__slots__); per-instance dicts cost allocation and lookups"),
    Rule("str-key-count", "event-path",
         "per-event counter accumulation through a str subscript "
         "(x['name'] += n); accumulate into a dense int-coded array "
         "and fold to names at the snapshot boundary"),
    Rule("event-alloc", "event-path",
         "dict/set literal or comprehension built inside a per-event "
         "function; allocate once (e.g. in __init__) and reuse/.clear(), "
         "or hoist the construction out of the event path"),
    Rule("swallowed-error", "orchestration",
         "broad except handler (Exception/BaseException/bare) whose "
         "body only passes: log, count, or re-raise instead"),
    Rule("snapshot-contract", "all",
         "SoA stats accumulators are int-indexed and fold to str-keyed "
         "views only at the sim/stats.py property/snapshot/pickle "
         "boundary; event-path code never touches a folded view"),
)

# Long-form why, surfaced by ``repro lint --explain <rule>``.
RATIONALES: Dict[str, str] = {
    "sim-rng":
        "The global `random` module is a single process-wide stream: "
        "any new caller shifts every draw after it, so an unrelated "
        "change perturbs all workloads and the golden digests. "
        "RngFactory hands each consumer its own stream seeded from "
        "(master_seed, name), so runs reproduce bit-for-bit and new "
        "consumers cannot disturb existing ones. id() is an allocator "
        "address and hash() of a str varies with PYTHONHASHSEED: "
        "neither may order or seed anything.",
    "wall-clock":
        "Simulated time is Simulator.now, advanced only by the event "
        "heap. A wall-clock reading (time.time, datetime.now) folded "
        "into results makes two identical runs differ, breaking the "
        "canonical-snapshot equality the regression suite pins. "
        "time.perf_counter is tolerated for wall-second *reporting* "
        "(RunResult.wall_seconds and the like), which the canonical "
        "snapshot and the golden digests exclude.",
    "set-iteration":
        "Python set iteration order depends on insertion history and "
        "per-process hash state. If event issue order, message "
        "targets, or output rows derive from it, runs stop being "
        "reproducible. sorted() fixes a total order; the lint also "
        "flags tuple()/list() materialization of sets, which freezes "
        "the nondeterministic order instead of removing it.",
    "pickle-safe":
        "Objects sent to sweep worker processes travel by pickle, and "
        "pickle resolves functions by module-level name: lambdas and "
        "nested defs fail at submission time — but only when a "
        "parallel sweep actually runs, which is exactly when the "
        "failure is most expensive. A submitted bound method (self.run) "
        "or a live System/Simulator/Network drags its whole heap "
        "through pickle, or dies there. The contract is specs in, "
        "stats out: keep process-boundary modules free of all of them "
        "and every task is picklable by construction.",
    "float-eq":
        "The simulator is cycle-accurate in integers; a float == "
        "comparison in latency or cycle math silently depends on "
        "rounding (0.1 + 0.2 != 0.3) and breaks on scale changes. "
        "Compare ints, or use an explicit tolerance for derived "
        "ratios.",
    "mutable-default":
        "A mutable default ([]/{}) is evaluated once and shared by "
        "every call, so state leaks across calls — in a simulator, "
        "across *runs* within one process, which defeats run "
        "isolation. Default to None and construct inside the "
        "function.",
    "int-cycles":
        "Event delays are heap keys; a float delay makes event "
        "ordering depend on floating-point rounding and can interleave "
        "events differently across platforms. Delays must stay "
        "integer: use // or int().",
    "sim-print":
        "print() inside the simulated machine bypasses Stats/Tracer, "
        "interleaves nondeterministically under parallel sweeps, and "
        "is invisible to the result cache. Counters and trace events "
        "are the sanctioned reporting channels.",
    "sim-env":
        "An os.environ read inside a sim-path function changes "
        "behaviour without changing SystemConfig — the result cache "
        "keys on config, so two env settings silently share one cache "
        "entry. Read the environment once at import time or route "
        "through config.",
    "bare-except":
        "A bare except: catches SystemExit and KeyboardInterrupt, so "
        "a run that should die keeps limping. Name the exception "
        "type.",
    "dataclass-slots":
        "A hot-path dataclass without __slots__ carries a per-instance "
        "__dict__: extra allocation per event and a dict lookup per "
        "attribute access. Pass slots=True, or disable with a "
        "rationale when pickle/3.10 compatibility needs __dict__.",
    "str-key-count":
        "counts['NAME'] += 1 hashes a string per event. The SoA "
        "accumulators exist to avoid exactly that: index by the dense "
        "int code on the hot path and fold to names once, at the "
        "snapshot boundary.",
    "event-alloc":
        "A dict/set literal or comprehension inside a per-event "
        "function allocates on every message. Allocate once in "
        "__init__ and reuse/.clear(), or hoist the construction out "
        "of the event path; disable with a rationale when the path "
        "is demonstrably cold.",
    "swallowed-error":
        "In orchestration code a broad except whose body only passes "
        "turns a crashed sweep cell or corrupted cache entry into "
        "quietly wrong aggregate numbers — the worst failure mode a "
        "reproduction toolkit can have. Log it, count it, or narrow "
        "the type.",
    "snapshot-contract":
        "Hot paths accumulate into dense int-indexed arrays "
        "(_msg_counts, _dir_req_counts, _puno_decline_counts, _ns_*); "
        "the str-keyed views (messages_by_type, dir_requests, "
        "puno_declines, nodes) and puno_timeouts, a sum over the PUNO "
        "units' rollover counters, are folded on read. A folded view "
        "touched in an event-path function allocates a Counter, hashes "
        "strings or walks every unit per event; a str subscript on a dense array is "
        "a type confusion that reads zero forever; a _fold_* call "
        "outside the sim/stats.py boundary functions moves folding "
        "into code that runs per event. __init__ may bind a view once "
        "at construction.",
}

RULES = tuple(
    Rule(r.id, r.scope, r.summary, RATIONALES.get(r.id, r.summary))
    for r in RULES)

RULES_BY_ID: Dict[str, Rule] = {r.id: r for r in RULES}

# Files (package-relative, posix) exempt from sim-rng: the stream
# factory itself is the one legitimate `random` consumer.
RNG_EXEMPT = ("sim/rng.py",)

# ``schemes/`` is sim-path: scheme plug-ins (contention managers,
# directory arbiters) run inside the simulated machine, so sim-rng /
# sim-print / sim-env apply to them exactly as to the built-in HTM.
SIM_PATH_PREFIXES = ("coherence/", "core/", "htm/", "network/",
                     "schemes/")
SIM_PATH_FILES = ("sim/engine.py",)

PICKLE_BOUNDARY_FILES = ("analysis/parallel.py", "sim/resultcache.py")

# workloads/base.py holds the per-op program records: a mesh builds
# one per transactional op, so a new record must not regrow a dict.
HOT_PATH_PREFIXES = ("network/", "sim/", "coherence/", "workloads/base.py")

# Modules whose functions run once per message/event.  Explicit file
# list, not a prefix: the snapshot/report boundary (sim/stats.py) and
# orchestration code legitimately build dicts and str-keyed views.
EVENT_PATH_FILES = (
    "network/network.py", "network/message.py", "network/topology.py",
    "sim/engine.py",
    "coherence/cache.py", "coherence/directory.py", "coherence/states.py",
    "htm/node.py", "htm/conflict.py", "htm/lazy.py", "htm/transaction.py",
    "core/puno.py", "core/pbuffer.py", "core/txlb.py", "core/bitset.py",
    "core/udpointer.py",
)

# Functions where one-time allocation is expected (construction and
# (de)serialization boundaries); the event-alloc rule skips these.
EVENT_ALLOC_EXEMPT_FUNCS = frozenset({
    "__init__", "__new__", "__post_init__", "__getstate__",
    "__setstate__", "__repr__",
})

ORCHESTRATION_PREFIXES = ("analysis/", "sim/")

# Attributes that are known to be set-typed in this codebase; iterating
# them directly is flagged by set-iteration.  (``sharers`` left this
# list when DirEntry switched to an int bitmask — bit order is
# deterministic, and repro.core.bitset iterates ascending.)
KNOWN_SET_ATTRS = frozenset({"read_set", "write_set"})

# Calls through which consuming a set is order-safe.
ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "frozenset", "set", "len", "min", "max", "any", "all",
})

_WALLCLOCK_TIME_FNS = frozenset({"time", "monotonic", "monotonic_ns",
                                 "time_ns"})
_WALLCLOCK_DT_FNS = frozenset({"now", "utcnow", "today"})

# snapshot-contract: the fold-on-read views over the SoA accumulators
# (touching one per event allocates and hashes a full Counter, or sums
# every PUNO unit's rollover counter) ...
FOLDED_VIEWS = frozenset({"messages_by_type", "dir_requests",
                          "puno_declines", "nodes", "puno_timeouts"})
# ... the dense int-indexed accumulators behind them (never str-keyed;
# the per-node arrays share the ``_ns_`` prefix) ...
SOA_FIELDS = frozenset({"_msg_counts", "_dir_req_counts",
                        "_puno_decline_counts"})
SOA_PREFIXES = ("_ns_",)
# ... and the only functions, all in sim/stats.py, that may fold.
FOLD_BOUNDARY_FILE = "sim/stats.py"
FOLD_BOUNDARY_FUNCS = frozenset({
    "messages_by_type", "dir_requests", "puno_declines", "snapshot",
    "summary", "__getstate__", "_fold_type_counts",
    "_fold_node_stats",
})

# pickle-safe: executor methods whose arguments cross the process
# boundary, and classes whose live instances must never do so (they
# carry heaps, callbacks or open handles).
SUBMIT_METHODS = frozenset({"submit", "map", "map_async", "apply_async"})
UNPICKLABLE_CLASSES = frozenset({
    "System", "Simulator", "Network", "Tracer", "Watchdog",
    "FaultInjector", "ProtocolSanitizer",
})


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line rule message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.rule} {self.message}"


# ---------------------------------------------------------------------
# scope resolution
# ---------------------------------------------------------------------

def active_rules(relpath: Optional[str]) -> Set[str]:
    """Rule ids that apply to a file.

    ``relpath`` is the package-relative posix path (``htm/node.py``) or
    None for files outside the package — those get every rule.
    """
    if relpath is None:
        return {r.id for r in RULES}
    sim_path = (relpath.startswith(SIM_PATH_PREFIXES)
                or relpath in SIM_PATH_FILES)
    pickle_boundary = relpath in PICKLE_BOUNDARY_FILES
    hot_path = relpath.startswith(HOT_PATH_PREFIXES)
    event_path = relpath in EVENT_PATH_FILES
    orchestration = relpath.startswith(ORCHESTRATION_PREFIXES)
    out: Set[str] = set()
    for r in RULES:
        if r.scope == "all":
            out.add(r.id)
        elif r.scope == "sim-path" and sim_path:
            out.add(r.id)
        elif r.scope == "pickle-boundary" and pickle_boundary:
            out.add(r.id)
        elif r.scope == "hot-path" and hot_path:
            out.add(r.id)
        elif r.scope == "event-path" and event_path:
            out.add(r.id)
        elif r.scope == "orchestration" and orchestration:
            out.add(r.id)
    if relpath in RNG_EXEMPT:
        out.discard("sim-rng")
    return out


# ---------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------

def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Heuristic: does ``node`` evaluate to a set/frozenset?

    ``set_names`` holds local names known (by linear assignment
    tracking) to be set-typed in the enclosing scope.
    """
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Attribute) and node.attr in KNOWN_SET_ATTRS:
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _has_float_ingredient(node: ast.AST) -> bool:
    """True when the expression visibly produces a float: a float
    literal, a true division, or a float()/round-free conversion."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "float"):
            return True
    return False


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute/name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------
# the single-pass checker
# ---------------------------------------------------------------------

class FileChecker(ast.NodeVisitor):
    """Runs every in-scope rule over one module's AST.

    ``relpath`` is the package-relative path (None outside the
    package, where the strictest scope applies): snapshot-contract
    checks folded views only in event-path files and lets
    ``sim/stats.py`` boundary functions fold.
    """

    def __init__(self, path: str, tree: ast.Module, rules: Set[str],
                 relpath: Optional[str] = None):
        self.path = path
        self.rules = rules
        self.tree = tree
        self.violations: List[Violation] = []
        self._event_path = relpath is None or relpath in EVENT_PATH_FILES
        self._fold_boundary = relpath == FOLD_BOUNDARY_FILE
        # linear tracking of names assigned set-typed expressions (and
        # of names bound to live unpicklable objects: name -> class),
        # one namespace per (nested) function scope, module scope at [0]
        self._set_names: List[Set[str]] = [set()]
        self._live_names: List[Dict[str, str]] = [{}]
        self._func_depth = 0
        self._func_names: List[str] = []

    def run(self) -> List[Violation]:
        self.visit(self.tree)
        return self.violations

    # ------------------------------------------------------------------
    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.rules:
            self.violations.append(Violation(
                self.path, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), rule, message))

    @property
    def _scope_sets(self) -> Set[str]:
        return self._set_names[-1]

    def _in_func(self, names: frozenset) -> bool:
        """Is the innermost enclosing function one of ``names``?"""
        return bool(self._func_names) and self._func_names[-1] in names

    # ------------------------------------------------------------------
    # scope management + mutable defaults
    # ------------------------------------------------------------------
    def _check_defaults(self, node) -> None:
        for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]:
            bad = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                bad = type(default).__name__.lower()
            elif (isinstance(default, ast.Call)
                  and isinstance(default.func, ast.Name)
                  and default.func.id in ("list", "dict", "set",
                                          "bytearray")):
                bad = default.func.id + "()"
            if bad is not None:
                self._emit(default, "mutable-default",
                           f"mutable default argument ({bad}); default to "
                           f"None and construct inside the function")

    def _visit_func(self, node) -> None:
        self._check_defaults(node)
        if self._func_depth > 0:
            self._emit(node, "pickle-safe",
                       f"nested function {node.name!r} in a "
                       f"process-boundary module cannot be pickled; "
                       f"hoist it to module level")
        self._func_depth += 1
        self._func_names.append(node.name)
        self._set_names.append(set())
        self._live_names.append({})
        self.generic_visit(node)
        self._live_names.pop()
        self._set_names.pop()
        self._func_names.pop()
        self._func_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._visit_func(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self._emit(node, "pickle-safe",
                   "lambda in a process-boundary module cannot be "
                   "pickled; use a module-level function")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # assignments: track set-typed and live-object names
    # ------------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        value = node.value
        cls = (_dotted(value.func).rsplit(".", 1)[-1]
               if isinstance(value, ast.Call) else "")
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(value, self._scope_sets):
                    self._scope_sets.add(target.id)
                else:
                    self._scope_sets.discard(target.id)
                if cls in UNPICKLABLE_CLASSES:
                    self._live_names[-1][target.id] = cls
                else:
                    self._live_names[-1].pop(target.id, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self._scope_sets):
                self._scope_sets.add(node.target.id)
            else:
                self._scope_sets.discard(node.target.id)

    # ------------------------------------------------------------------
    # iteration order
    # ------------------------------------------------------------------
    def _check_iteration(self, node: ast.AST, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self._scope_sets):
            self._emit(node, "set-iteration",
                       "iterating an unordered set; wrap in sorted() so "
                       "downstream order (events, output) is deterministic")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, gen.iter)

    def visit_ListComp(self, node) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_SetComp(self, node) -> None:
        self._check_comp(node)
        self._check_event_alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node) -> None:
        self._check_comp(node)
        self._check_event_alloc(node, "dict comprehension")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # per-event allocation (event-path modules)
    # ------------------------------------------------------------------
    def _check_event_alloc(self, node: ast.AST, kind: str) -> None:
        if (self._func_names
                and self._func_names[-1] not in EVENT_ALLOC_EXEMPT_FUNCS):
            self._emit(node, "event-alloc",
                       f"{kind} built inside {self._func_names[-1]!r}; "
                       f"per-event code should allocate once and "
                       f"reuse/.clear() (hoist to __init__), or disable "
                       f"with a rationale if this path is cold")

    def visit_Set(self, node: ast.Set) -> None:
        self._check_event_alloc(node, "set literal")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._check_event_alloc(node, "dict literal")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # str-keyed counter accumulation (event-path modules)
    # ------------------------------------------------------------------
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if (isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)):
            self._emit(node, "str-key-count",
                       f"counter keyed by str {target.slice.value!r} in "
                       f"per-event code; hash-per-event is the cost the "
                       f"dense int-coded accumulators exist to avoid — "
                       f"index by code and fold to names at the "
                       f"snapshot boundary")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: rng, wall clock, delays, print, env, tuple/list-of-set
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # sim-rng: any call through the random module
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "random":
                self._emit(node, "sim-rng",
                           f"random.{func.attr}() bypasses the seeded "
                           f"stream factory; draw from repro.sim.rng "
                           f"(RngFactory.stream)")
            self._check_wallclock(node, func)
            # int-cycles: Simulator.schedule delay argument
            if func.attr in ("schedule", "schedule_at") and node.args:
                if _has_float_ingredient(node.args[0]):
                    self._emit(node, "int-cycles",
                               f"{func.attr}() delay uses float math; "
                               f"cycle delays must be integers (use // "
                               f"or int())")
            if func.attr in SUBMIT_METHODS and node.args:
                self._check_submission(node.args)
            if (func.attr.startswith("_fold_")
                    and not (self._fold_boundary
                             and self._in_func(FOLD_BOUNDARY_FUNCS))):
                self._emit(node, "snapshot-contract",
                           f"{func.attr}() called outside the sim/stats.py "
                           f"property/snapshot/pickle boundary; fold only "
                           f"there")
            # sim-env: os.environ.get / os.getenv inside functions
            if self._func_depth > 0:
                dotted = _dotted(func)
                if dotted in ("os.environ.get", "os.getenv"):
                    self._emit(node, "sim-env",
                               "environment read inside a sim-path "
                               "function; read once at import time or "
                               "route through SystemConfig")
        elif isinstance(func, ast.Name):
            if func.id in ("id", "hash") and node.args:
                self._emit(node, "sim-rng",
                           f"{func.id}() varies across runs (allocator "
                           f"address / PYTHONHASHSEED); key or order by "
                           f"a stable value")
            if func.id == "print":
                self._emit(node, "sim-print",
                           "print() in sim-path code; report through "
                           "Stats counters or the Tracer")
            if func.id in ("tuple", "list") and len(node.args) == 1:
                if _is_set_expr(node.args[0], self._scope_sets):
                    self._emit(node, "set-iteration",
                               f"{func.id}() over an unordered set "
                               f"freezes nondeterministic order; use "
                               f"sorted()")
        self.generic_visit(node)

    def _check_submission(self, args: List[ast.expr]) -> None:
        """pickle-safe over one executor submission: the task callable
        must not be a bound method, and no argument may be a live
        simulation object (lambdas are flagged by visit_Lambda)."""
        task = args[0]
        if (isinstance(task, ast.Attribute)
                and isinstance(task.value, ast.Name)
                and task.value.id == "self"):
            self._emit(task, "pickle-safe",
                       f"bound method self.{task.attr} submitted as a "
                       f"worker task pickles the whole instance; use a "
                       f"module-level function")
        for arg in args:
            cls = (self._live_names[-1].get(arg.id)
                   if isinstance(arg, ast.Name) else None)
            if cls is not None:
                self._emit(arg, "pickle-safe",
                           f"live {cls} instance {arg.id!r} captured into "
                           f"a worker task; ship a picklable spec and "
                           f"rebuild in the worker")

    def _check_wallclock(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        if (isinstance(base, ast.Name) and base.id == "time"
                and func.attr in _WALLCLOCK_TIME_FNS):
            self._emit(node, "wall-clock",
                       f"time.{func.attr}() is wall-clock; simulated "
                       f"time is Simulator.now (use time.perf_counter "
                       f"only for wall-second reporting)")
            return
        if func.attr in _WALLCLOCK_DT_FNS:
            dotted = _dotted(func)
            head = dotted.split(".", 1)[0]
            if head in ("datetime", "date"):
                self._emit(node, "wall-clock",
                           f"{dotted}() is wall-clock; simulated time "
                           f"is Simulator.now")

    # ------------------------------------------------------------------
    # subscripts: os.environ[...] reads, str-keyed SoA accumulators
    # ------------------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._func_depth > 0 and _dotted(node.value) == "os.environ":
            self._emit(node, "sim-env",
                       "environment read inside a sim-path function; "
                       "read once at import time or route through "
                       "SystemConfig")
        value = node.value
        if (isinstance(value, ast.Attribute)
                and (value.attr in SOA_FIELDS
                     or value.attr.startswith(SOA_PREFIXES))
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            self._emit(node, "snapshot-contract",
                       f"str subscript on dense accumulator "
                       f".{value.attr}; it is indexed by int code — the "
                       f"str keying exists only in the folded views")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # attributes: folded stats views in event-path code
    # ------------------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr in FOLDED_VIEWS and self._event_path
                and not self._in_func(EVENT_ALLOC_EXEMPT_FUNCS)):
            self._emit(node, "snapshot-contract",
                       f"folded view .{node.attr} accessed in event-path "
                       f"code; use the dense accumulator "
                       f"(stats._msg_counts[code], stats._ns_<field>[n]) "
                       f"and fold at the snapshot boundary")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # imports: from random import ...
    # ------------------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._emit(node, "sim-rng",
                       "importing names from the random module; draw "
                       "from repro.sim.rng (RngFactory.stream)")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # comparisons: float ==
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if any(_has_float_ingredient(o) for o in operands):
                self._emit(node, "float-eq",
                           "float == / != on cycle or latency math is "
                           "unreliable; compare ints or use a tolerance")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # dataclasses without slots (hot-path modules)
    # ------------------------------------------------------------------
    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
        """The @dataclass decorator node, in any of its spellings."""
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if _dotted(target) in ("dataclass", "dataclasses.dataclass"):
                return dec
        return None

    @staticmethod
    def _declares_slots(node: ast.ClassDef, dec: ast.AST) -> bool:
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if (kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True):
                    return True
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == "__slots__"
                       for t in stmt.targets):
                    return True
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.target.id == "__slots__"):
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        dec = self._dataclass_decorator(node)
        if dec is not None and not self._declares_slots(node, dec):
            self._emit(node, "dataclass-slots",
                       f"dataclass {node.name!r} in a hot-path module "
                       f"has no __slots__; pass slots=True (or disable "
                       f"with a rationale if instances must keep a "
                       f"__dict__, e.g. for 3.10 frozen-pickle compat)")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # bare except
    # ------------------------------------------------------------------
    @staticmethod
    def _is_broad_handler(node: ast.ExceptHandler) -> bool:
        """Bare except, or one naming Exception/BaseException (alone
        or inside a tuple of types)."""
        if node.type is None:
            return True
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        for t in types:
            name = _dotted(t).rsplit(".", 1)[-1]
            if name in ("Exception", "BaseException"):
                return True
        return False

    @staticmethod
    def _body_swallows(node: ast.ExceptHandler) -> bool:
        """True when the handler body does nothing observable: only
        ``pass``, ``...`` or docstring-style constant expressions."""
        for stmt in node.body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(node, "bare-except",
                       "bare except: swallows SystemExit/KeyboardInterrupt; "
                       "name the exception type")
        if self._is_broad_handler(node) and self._body_swallows(node):
            self._emit(node, "swallowed-error",
                       "broad exception handler silently discards the "
                       "error; in orchestration code a swallowed failure "
                       "becomes a quietly wrong sweep — log it, count it, "
                       "or narrow the type")
        self.generic_visit(node)
