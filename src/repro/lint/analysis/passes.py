"""The whole-program passes behind ``repro lint --deep``.

Each pass consumes the shared :class:`~repro.lint.analysis.project.
Project` / :class:`~repro.lint.analysis.symbols.SymbolTable` /
:class:`~repro.lint.analysis.callgraph.CallGraph` triple and emits
:class:`~repro.lint.rules.Violation` records under its own ``deep-*``
rule id, so reports, disable comments, baselines and SARIF all treat
deep findings exactly like per-file ones.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.analysis.callgraph import CallGraph
from repro.lint.analysis.project import ModuleInfo, Project
from repro.lint.analysis.symbols import ClassInfo, FunctionInfo, SymbolTable
from repro.lint.rules import (
    EVENT_PATH_FILES,
    PICKLE_BOUNDARY_FILES,
    RNG_EXEMPT,
    Violation,
    _is_set_expr,
)

# ---------------------------------------------------------------------
# determinism taint
# ---------------------------------------------------------------------

#: Every function in these modules is an ordering-sensitive sink seed:
#: the event engine's scheduling core decides execution order.
SINK_SEED_MODULES: Tuple[str, ...] = ("sim/engine.py",)

#: Named sink seeds: stats/digest construction and message delivery
#: scheduling (the network inlines its heap push, so the engine-module
#: seed alone would miss it).
SINK_SEED_FUNCS: Tuple[str, ...] = (
    "sim/stats.py::Stats.snapshot",
    "sim/stats.py::Stats.snapshot_digest",
    "sim/stats.py::Stats._fold_type_counts",
    "network/network.py::Network._send_fast",
    "network/network.py::Network._send_full",
)

# Unlike the per-file wall-clock rule, the deep pass also treats
# perf_counter as a source: inside a sink-reaching function even a
# "reporting-only" reading is one assignment away from contaminating
# the digest.  Legitimate wall-second reporting carries a baseline
# entry with its justification.
_WALLCLOCK_TIME = frozenset({"time", "monotonic", "monotonic_ns",
                             "time_ns", "perf_counter",
                             "perf_counter_ns"})
_WALLCLOCK_DT = frozenset({"now", "utcnow", "today"})


def _short(qual: str) -> str:
    """``htm/node.py::NodeController._foo`` -> ``node.NodeController._foo``."""
    relpath, _, name = qual.partition("::")
    stem = relpath.rsplit("/", 1)[-1][:-3]
    return f"{stem}.{name}" if name else stem


class _TaintScanner(ast.NodeVisitor):
    """Finds nondeterminism-source expressions in one function body."""

    def __init__(self, relpath: str):
        self.relpath = relpath
        self.findings: List[Tuple[ast.AST, str]] = []
        self._set_names: Set[str] = set()

    # -- source kinds --------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("id", "hash") and node.args:
                self.findings.append((
                    node, f"{func.id}() depends on the memory allocator"
                          f"{' / PYTHONHASHSEED' if func.id == 'hash' else ''}"
                          f" and varies across runs"))
            elif func.id in ("tuple", "list") and len(node.args) == 1 \
                    and _is_set_expr(node.args[0], self._set_names):
                self.findings.append((
                    node, f"{func.id}() over an unordered set freezes "
                          f"nondeterministic order"))
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if (base.id == "random"
                        and self.relpath not in RNG_EXEMPT):
                    self.findings.append((
                        node, f"random.{func.attr}() draws from the "
                              f"unseeded global stream"))
                elif base.id == "time" and func.attr in _WALLCLOCK_TIME:
                    self.findings.append((
                        node, f"time.{func.attr}() reads the wall "
                              f"clock"))
            dotted = _dotted(func)
            if dotted in ("os.environ.get", "os.getenv"):
                self.findings.append((
                    node, "os.environ read makes the result depend on "
                          "ambient process state"))
            elif func.attr in _WALLCLOCK_DT and \
                    dotted.split(".", 1)[0] in ("datetime", "date"):
                self.findings.append((
                    node, f"{dotted}() reads the wall clock"))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _dotted(node.value) == "os.environ":
            self.findings.append((
                node, "os.environ read makes the result depend on "
                      "ambient process state"))
        self.generic_visit(node)

    # -- set-name tracking + unsorted iteration ------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, self._set_names):
                    self._set_names.add(target.id)
                else:
                    self._set_names.discard(target.id)

    def _check_iter(self, node: ast.AST, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self._set_names):
            self.findings.append((
                node, "iteration over an unordered set"))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


class DeterminismTaintPass:
    """Dataflow from nondeterminism sources to ordering-sensitive
    sinks: any source expression inside a function from which engine
    scheduling, stats accumulation, or snapshot/digest construction is
    statically reachable is a finding, unless routed through
    ``sim.rng`` (seeded streams never match the source patterns) or an
    explicit ``sorted()``."""

    rule = "deep-determinism-taint"

    def run(self, project: Project, symtab: SymbolTable,
            graph: CallGraph) -> List[Violation]:
        seeds = [q for q, fn in symtab.functions.items()
                 if fn.relpath in SINK_SEED_MODULES]
        seeds += [q for q in SINK_SEED_FUNCS if q in symtab.functions]
        parent = graph.reverse_reachable(seeds)
        out: List[Violation] = []
        for qual in sorted(parent):
            fn = symtab.functions[qual]
            scanner = _TaintScanner(fn.relpath)
            scanner.visit(fn.node)
            if not scanner.findings:
                continue
            chain = " -> ".join(_short(q)
                                for q in graph.chain(qual, parent))
            mod = project.get(fn.relpath)
            for node, desc in scanner.findings:
                out.append(Violation(
                    mod.path if mod else fn.relpath,
                    getattr(node, "lineno", fn.lineno),
                    getattr(node, "col_offset", 0), self.rule,
                    f"{desc}; {_short(qual)} reaches an "
                    f"ordering-sensitive sink ({chain}) — route through "
                    f"sim.rng or an explicit sort"))
        return out


# ---------------------------------------------------------------------
# handler exhaustiveness
# ---------------------------------------------------------------------

class HandlerExhaustivenessPass:
    """Statically prove every ``MessageType`` code has a registered
    handler for each endpoint pairing.

    The wiring contract (``System._make_endpoint``) merges one
    directory-side and one node-side ``handlers`` dict and raises on a
    gap at construction time; this pass proves the same property
    from the dispatch-table literals, over *every* combination of
    endpoint subclasses, so a scheme plug-in with a partial table is
    caught before any system is ever built."""

    rule = "deep-handler-exhaustive"

    def run(self, project: Project, symtab: SymbolTable,
            graph: CallGraph) -> List[Violation]:
        members = self._message_types(symtab)
        if not members:
            return []  # no MessageType enum in this tree
        roots = self._root_classes(symtab)
        if not roots:
            return []
        out: List[Violation] = []
        # families: every subclass of each root that assigns handlers
        families: List[List[Tuple[ClassInfo, Set[str]]]] = []
        for root in roots:
            family: List[Tuple[ClassInfo, Set[str]]] = []
            for cls in symtab.subclasses_of(root):
                keys = self._effective_keys(cls)
                if keys is not None:
                    family.append((cls, keys))
            families.append(family)
        for i, fam_a in enumerate(families):
            for fam_b in families[i + 1:]:
                for cls_a, keys_a in fam_a:
                    for cls_b, keys_b in fam_b:
                        out.extend(self._check_pair(
                            project, members, cls_a, keys_a, cls_b,
                            keys_b))
        if len(families) == 1:
            for cls, keys in families[0]:
                missing = members - keys
                if missing:
                    out.append(self._violation(
                        project, cls,
                        f"endpoint class {cls.name!r} has no partner "
                        f"family and misses handlers for "
                        f"{self._fmt(missing)}"))
        return out

    # -- MessageType members -------------------------------------------
    @staticmethod
    def _message_types(symtab: SymbolTable) -> Set[str]:
        cls = None
        for qual, info in sorted(symtab.classes.items()):
            if info.name == "MessageType":
                cls = info
                break
        if cls is None:
            return set()
        members: Set[str] = set()
        for stmt in cls.node.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                members.add(stmt.targets[0].id)
        return members

    # -- endpoint family roots -----------------------------------------
    def _root_classes(self, symtab: SymbolTable) -> List[ClassInfo]:
        """Classes that *introduce* a ``handlers`` dispatch table
        keyed by MessageType (an ``assign`` op in their own
        ``__init__``) and inherit one from no project ancestor —
        each is the root of one endpoint family."""
        roots: List[ClassInfo] = []
        for qual in sorted(symtab.classes):
            cls = symtab.classes[qual]
            ops = self._table_ops(cls)
            if not ops or not any(op == "assign" and keys
                                  for op, keys in ops):
                continue
            inherited = any(
                (anc_ops := self._table_ops(anc)) and any(
                    op == "assign" and keys for op, keys in anc_ops)
                for anc in cls.mro()[1:])
            if not inherited:
                roots.append(cls)
        return roots

    # -- dispatch-table extraction -------------------------------------
    @staticmethod
    def _table_ops(cls: ClassInfo
                   ) -> Optional[List[Tuple[str, Set[str]]]]:
        """Ordered ``handlers``-dict operations in ``cls.__init__``:
        ("assign", keys) for ``self.handlers = {...}``, ("add", {k})
        for ``self.handlers[MessageType.K] = ...``, ("del", {k}) for
        ``del``/``.pop``.  None when __init__ never touches it."""
        init = cls.methods.get("__init__")
        if init is None:
            return None
        ops: List[Tuple[str, Set[str]]] = []
        for node in ast.walk(init.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if isinstance(node, ast.Assign):
                    if len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                else:
                    target = node.target
                if _is_self_attr(target, "handlers") \
                        and isinstance(node.value, ast.Dict):
                    keys = {_mtype_key(k) for k in node.value.keys}
                    keys.discard(None)
                    ops.append(("assign", keys))
                elif (isinstance(target, ast.Subscript)
                      and _is_self_attr(target.value, "handlers")):
                    key = _mtype_key(target.slice)
                    if key:
                        ops.append(("add", {key}))
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if (isinstance(tgt, ast.Subscript)
                            and _is_self_attr(tgt.value, "handlers")):
                        key = _mtype_key(tgt.slice)
                        if key:
                            ops.append(("del", {key}))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "pop"
                  and _is_self_attr(node.func.value, "handlers")
                  and node.args):
                key = _mtype_key(node.args[0])
                if key:
                    ops.append(("del", {key}))
        return ops or None

    def _effective_keys(self, cls: ClassInfo) -> Optional[Set[str]]:
        """Registered MessageType names after applying every class in
        the MRO ancestor-first; None when no class in the chain ever
        builds a table."""
        keys: Optional[Set[str]] = None
        for owner in reversed(cls.mro()):
            ops = self._table_ops(owner)
            if ops is None:
                continue
            for op, names in ops:
                if op == "assign":
                    keys = set(names)
                elif op == "add":
                    keys = (keys or set()) | names
                elif op == "del" and keys is not None:
                    keys -= names
        return keys

    # -- pairing check --------------------------------------------------
    def _check_pair(self, project: Project, members: Set[str],
                    cls_a: ClassInfo, keys_a: Set[str],
                    cls_b: ClassInfo, keys_b: Set[str]
                    ) -> List[Violation]:
        out: List[Violation] = []
        missing = members - keys_a - keys_b
        if missing:
            out.append(self._violation(
                project, cls_b,
                f"endpoint pairing ({cls_a.name}, {cls_b.name}) has no "
                f"handler for {self._fmt(missing)}; a message of that "
                f"type would be undeliverable"))
        overlap = keys_a & keys_b
        if overlap:
            out.append(self._violation(
                project, cls_b,
                f"endpoint pairing ({cls_a.name}, {cls_b.name}) "
                f"registers {self._fmt(overlap)} on both sides; the "
                f"merge silently shadows one handler"))
        return out

    def _violation(self, project: Project, cls: ClassInfo,
                   message: str) -> Violation:
        mod = project.get(cls.relpath)
        return Violation(mod.path if mod else cls.relpath, cls.lineno,
                         cls.node.col_offset, self.rule, message)

    @staticmethod
    def _fmt(names: Set[str]) -> str:
        return "{" + ", ".join(sorted(names)) + "}"


# ---------------------------------------------------------------------
# snapshot contract + pickle capture
# ---------------------------------------------------------------------

#: The fold-on-read views over the SoA accumulators; touching one in
#: per-event code allocates and hashes a full Counter per call.
#: ``nodes`` joined in PR 8: the per-node block became SoA arrays with
#: ``stats.nodes`` a list of write-through views — hot paths bind the
#: flat ``_ns_*`` arrays at construction instead of walking views.
FOLDED_VIEWS = frozenset({"messages_by_type", "dir_requests",
                          "puno_declines", "nodes"})

#: The dense int-indexed accumulators; a str subscript on one is a
#: category error (the str keying exists only in the folded views).
SOA_FIELDS = frozenset({"_msg_counts", "_dir_req_counts",
                        "_puno_decline_counts"})

#: Per-node SoA accumulators all share this prefix (one flat list per
#: field on Stats, indexed by node id); they obey the same no-str-
#: subscript contract as SOA_FIELDS without enumerating every field.
SOA_PREFIXES = ("_ns_",)

#: The fold helpers: callable only at the designated boundaries.
FOLD_HELPERS = frozenset({"_fold_type_counts", "_fold_node_stats"})

#: Functions in sim/stats.py that legitimately fold (the property
#: getters, the snapshot boundary, and pickle migration).
FOLD_BOUNDARY_FUNCS = frozenset({
    "messages_by_type", "dir_requests", "puno_declines", "snapshot",
    "summary", "__getstate__", "__setstate__", "_fold_type_counts",
    "_fold_node_stats",
})

#: Classes whose live instances must never cross the sweep-worker
#: process boundary (they carry heaps, callbacks, or open handles).
UNPICKLABLE_CLASSES = frozenset({
    "System", "Simulator", "Network", "Tracer", "Watchdog",
    "FaultInjector", "ProtocolSanitizer",
})


class SnapshotContractPass:
    """Checks the PR-6 folding contract and sweep-task pickle safety:

    * no folded-view access (``messages_by_type`` & co.) inside the
      event-path file scope;
    * SoA accumulators are never str-subscripted, and
      ``_fold_type_counts`` is called only at the designated
      boundaries in ``sim/stats.py``;
    * executor submissions in the pickle-boundary modules take
      module-level callables and never capture live simulation
      objects (reported as ``deep-pickle-capture``)."""

    rule = "deep-snapshot-contract"
    pickle_rule = "deep-pickle-capture"

    def run(self, project: Project, symtab: SymbolTable,
            graph: CallGraph) -> List[Violation]:
        out: List[Violation] = []
        for relpath in sorted(project.modules):
            mod = project.modules[relpath]
            if relpath in EVENT_PATH_FILES:
                out.extend(self._check_event_path(mod))
            out.extend(self._check_fold_boundary(mod, symtab))
        for relpath in sorted(set(PICKLE_BOUNDARY_FILES)
                              | {"scenarios/runner.py"}):
            mod = project.get(relpath)
            if mod is not None:
                out.extend(self._check_pickle_capture(mod, symtab))
        return out

    # -- folded views in the event path --------------------------------
    def _check_event_path(self, mod: ModuleInfo) -> List[Violation]:
        from repro.lint.rules import EVENT_ALLOC_EXEMPT_FUNCS

        # Construction-time binding (``self.nstats = stats.nodes[n]``
        # in __init__) is the sanctioned idiom; only per-event access
        # is a violation, so exempt the one-time-allocation functions.
        exempt_lines: Set[int] = set()
        for fnode in ast.walk(mod.tree):
            if (isinstance(fnode, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fnode.name in EVENT_ALLOC_EXEMPT_FUNCS):
                end = getattr(fnode, "end_lineno", fnode.lineno)
                exempt_lines.update(range(fnode.lineno, end + 1))
        out: List[Violation] = []
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in FOLDED_VIEWS
                    and node.lineno not in exempt_lines):
                out.append(Violation(
                    mod.path, node.lineno, node.col_offset, self.rule,
                    f"folded view .{node.attr} accessed in the "
                    f"event-path scope; views exist for cold paths — "
                    f"use the dense accumulator "
                    f"(stats._msg_counts[code], stats._ns_<field>[n]) "
                    f"and fold at the snapshot boundary"))
        return out

    # -- fold boundary --------------------------------------------------
    def _check_fold_boundary(self, mod: ModuleInfo,
                             symtab: SymbolTable) -> List[Violation]:
        out: List[Violation] = []
        fold_ok = (mod.relpath == "sim/stats.py")
        # enclosing-function map so stats.py boundary funcs are exempt
        encl: Dict[int, str] = {}
        for fn in symtab.functions.values():
            if fn.relpath != mod.relpath:
                continue
            end = getattr(fn.node, "end_lineno", fn.lineno)
            for line in range(fn.lineno, end + 1):
                encl[line] = fn.name
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and (node.value.attr in SOA_FIELDS
                         or node.value.attr.startswith(SOA_PREFIXES))
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                out.append(Violation(
                    mod.path, node.lineno, node.col_offset, self.rule,
                    f"str subscript on dense accumulator "
                    f".{node.value.attr}; it is indexed by int code — "
                    f"the str keying exists only in the folded views"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in FOLD_HELPERS):
                where = encl.get(node.lineno, "")
                if not (fold_ok and where in FOLD_BOUNDARY_FUNCS):
                    out.append(Violation(
                        mod.path, node.lineno, node.col_offset,
                        self.rule,
                        f"{node.func.attr}() called outside the "
                        f"property/snapshot/pickle boundary "
                        f"(in {where or 'module scope'!r}); folding "
                        f"belongs to sim/stats.py"))
        return out

    # -- pickle capture -------------------------------------------------
    def _check_pickle_capture(self, mod: ModuleInfo,
                              symtab: SymbolTable) -> List[Violation]:
        out: List[Violation] = []
        for fn_qual in sorted(symtab.functions):
            fn = symtab.functions[fn_qual]
            if fn.relpath != mod.relpath:
                continue
            live_names = self._live_object_names(fn)
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("submit", "map",
                                               "map_async", "apply_async")
                        and node.args):
                    continue
                target, *rest = node.args
                out.extend(self._check_task_callable(
                    mod, symtab, fn, node, target))
                for arg in rest:
                    if isinstance(arg, ast.Lambda):
                        out.append(Violation(
                            mod.path, arg.lineno, arg.col_offset,
                            self.pickle_rule,
                            "lambda captured into a worker-task "
                            "argument cannot be pickled"))
                    elif (isinstance(arg, ast.Name)
                          and arg.id in live_names):
                        out.append(Violation(
                            mod.path, arg.lineno, arg.col_offset,
                            self.pickle_rule,
                            f"live {live_names[arg.id]} instance "
                            f"{arg.id!r} captured into a worker task; "
                            f"ship a picklable spec and rebuild in the "
                            f"worker"))
        return out

    def _check_task_callable(self, mod: ModuleInfo,
                             symtab: SymbolTable, fn: FunctionInfo,
                             call: ast.Call,
                             target: ast.AST) -> List[Violation]:
        if isinstance(target, ast.Lambda):
            return [Violation(
                mod.path, target.lineno, target.col_offset,
                self.pickle_rule,
                "lambda submitted as a worker task cannot be pickled")]
        if isinstance(target, ast.Name):
            sym = symtab.resolve_local(mod.relpath, target.id)
            if isinstance(sym, FunctionInfo) and sym.clsname is not None:
                return [Violation(
                    mod.path, target.lineno, target.col_offset,
                    self.pickle_rule,
                    f"method {sym.clsname}.{sym.name} submitted as a "
                    f"worker task; bound methods drag their instance "
                    f"through pickle — use a module-level function")]
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return [Violation(
                mod.path, target.lineno, target.col_offset,
                self.pickle_rule,
                f"bound method self.{target.attr} submitted as a "
                f"worker task pickles the whole instance; use a "
                f"module-level function")]
        return []

    @staticmethod
    def _live_object_names(fn: FunctionInfo) -> Dict[str, str]:
        """Local names assigned constructions of known-unpicklable
        classes inside ``fn``."""
        out: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                callee = node.value.func
                name = (callee.id if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute) else "")
                if name in UNPICKLABLE_CLASSES:
                    out[node.targets[0].id] = name
        return out


# ---------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------

DEEP_PASSES = (DeterminismTaintPass, HandlerExhaustivenessPass,
               SnapshotContractPass)


def run_deep_analysis(root=None, overrides=None) -> List[Violation]:
    """Build the project model once and run every deep pass.

    ``root`` is the package directory to analyze (default: the
    installed ``repro`` package); ``overrides`` maps relpath ->
    replacement source (the seeded-mutation meta-tests).  Raises
    :class:`~repro.lint.analysis.project.ProjectError` when the tree
    cannot be parsed."""
    project = Project.load(root, overrides)
    symtab = SymbolTable(project)
    graph = CallGraph(symtab)
    violations: List[Violation] = []
    for pass_cls in DEEP_PASSES:
        violations.extend(pass_cls().run(project, symtab, graph))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _mtype_key(node: ast.AST) -> Optional[str]:
    """``MessageType.GETS`` -> ``"GETS"`` (None for anything else)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "MessageType"):
        return node.attr
    return None


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
