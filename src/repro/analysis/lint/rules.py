"""The repo-specific rules, each grounded in a real past bug.

==========================  =========================================
rule id                     the bug it makes impossible to reintroduce
==========================  =========================================
``no-recursion``            PR 3's manual audit: kernel cores must be
                            iterative (million-node trees died with
                            ``RecursionError``)
``monotonic-clock``         PR 8's uptime bug: ``time.time()`` deltas
                            jump on NTP steps
``no-blocking-in-async``    event-loop stalls: sync sleeps/IO inside
                            ``async def`` freeze every connection
``no-swallowed-exceptions`` PR 8's ``Gauge`` bug: broad handlers that
                            neither count, log nor re-raise hide
                            failures forever
``cache-key-discipline``    PR 5/7's rule: every request field is in
                            the canonical key or explicitly excluded
``error-taxonomy``          one error vocabulary: every code exists in
                            ``api.errors`` and maps to an HTTP status
==========================  =========================================
"""

from __future__ import annotations

import ast
from typing import Any

from .engine import ModuleContext, Rule

__all__ = ["ALL_RULES", "RULE_IDS", "default_rules"]


def _call_target(func: ast.AST) -> str | None:
    """Best-effort dotted name of a call target (``a.b.c`` or ``name``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _call_target(func.value)
        return f"{base}.{func.attr}" if base is not None else None
    return None


class _ImportAliases:
    """Track how a module is reachable in this file: aliases + from-imports."""

    def __init__(self, module: str, names: tuple[str, ...]):
        self.module = module
        self.interesting = names
        self.module_aliases: set[str] = set()
        #: local name -> original name, for ``from module import name [as x]``
        self.from_names: dict[str, str] = {}

    def see(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == self.module:
                    self.module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == self.module:
            for alias in node.names:
                if alias.name in self.interesting:
                    self.from_names[alias.asname or alias.name] = alias.name

    def resolves(self, call: ast.Call, name: str) -> bool:
        """Does this call target ``module.name`` under any local spelling?"""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == name:
            return (
                isinstance(func.value, ast.Name)
                and func.value.id in self.module_aliases
            )
        if isinstance(func, ast.Name):
            return self.from_names.get(func.id) == name
        return False


# ----------------------------------------------------------------------
# no-recursion
# ----------------------------------------------------------------------
class NoRecursionRule(Rule):
    """Direct or mutual recursion is forbidden in the kernel packages.

    PR 3 converted every per-node recursion in the cores to explicit
    stacks so million-node trees survive; this rule makes that audit
    permanent.  Resolution is lexical and conservative: plain-name
    calls resolve through the enclosing scopes of the call site,
    ``self.x()``/``cls.x()`` through the enclosing class.
    """

    id = "no-recursion"
    motivation = "PR 3 recursion audit: kernels must survive million-node trees"
    scopes = ("repro.core", "repro.io")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Call)

    def start_module(self, ctx: ModuleContext) -> None:
        self._funcs: dict[str, ast.AST] = {}
        self._edges: list[tuple[str, str, str, tuple[str, ...]]] = []

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._funcs[ctx.qualname()] = node
            return
        assert isinstance(node, ast.Call)
        if not ctx.function_stack:
            return
        caller = ctx.qualname()
        scope = tuple(ctx.scope_parts)
        func = node.func
        if isinstance(func, ast.Name):
            self._edges.append((caller, "plain", func.id, scope))
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and ctx.class_stack
        ):
            self._edges.append((caller, "method", func.attr, (ctx.class_stack[-1],)))

    def _resolve(self, kind: str, name: str, scope: tuple[str, ...]) -> str | None:
        if kind == "plain":
            for depth in range(len(scope), -1, -1):
                candidate = ".".join((*scope[:depth], name))
                if candidate in self._funcs:
                    return candidate
            return None
        suffix = f"{scope[0]}.{name}"
        for qualname in self._funcs:
            if qualname == suffix or qualname.endswith("." + suffix):
                return qualname
        return None

    def finish_module(self, ctx: ModuleContext) -> None:
        graph: dict[str, set[str]] = {q: set() for q in self._funcs}
        for caller, kind, name, scope in self._edges:
            target = self._resolve(kind, name, scope)
            if target is not None and caller in graph:
                graph[caller].add(target)
        for qualname, cycle in _recursion_cycles(graph).items():
            node = self._funcs[qualname]
            if len(cycle) == 1:
                message = (
                    f"'{qualname}' calls itself; kernel code must be iterative "
                    "(explicit stack) — the PR 3 recursion audit, made permanent"
                )
            else:
                ring = " -> ".join((*cycle, cycle[0]))
                message = (
                    f"'{qualname}' is part of a mutual-recursion cycle "
                    f"({ring}); kernel code must be iterative (explicit stack)"
                )
            ctx.add(self.id, node, message, symbol=qualname)


def _recursion_cycles(graph: dict[str, set[str]]) -> dict[str, tuple[str, ...]]:
    """Map each function on a cycle to its strongly connected component.

    Iterative Tarjan — this module practices what the rule preaches.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    scc_stack: list[str] = []
    counter = [0]
    result: dict[str, tuple[str, ...]] = {}

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(graph[root]), 0)]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        scc_stack.append(root)
        on_stack[root] = True
        while work:
            node, children, i = work.pop()
            advanced = False
            while i < len(children):
                child = children[i]
                i += 1
                if child not in index:
                    work.append((node, children, i))
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    scc_stack.append(child)
                    on_stack[child] = True
                    work.append((child, sorted(graph[child]), 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                component.reverse()
                if len(component) > 1 or node in graph[node]:
                    for member in component:
                        result[member] = tuple(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


# ----------------------------------------------------------------------
# monotonic-clock
# ----------------------------------------------------------------------
class MonotonicClockRule(Rule):
    """``time.time()`` may not feed duration/uptime arithmetic.

    PR 8 moved uptime to ``time.monotonic()`` after an NTP step made
    the wall-clock uptime jump.  Wall clock stays legal for
    log-correlation timestamps (``{"ts": time.time()}`` — a plain
    value, no arithmetic); any subtraction/comparison chain is not.
    Detected both directly (``time.time() - t0``) and through a local
    variable (``t0 = time.time() … delta = now - t0``).
    """

    id = "monotonic-clock"
    motivation = "PR 8 uptime bug: wall-clock deltas jump on NTP steps"
    scopes = ("repro.service", "repro.obs")
    node_types = (
        ast.Import,
        ast.ImportFrom,
        ast.Call,
        ast.BinOp,
        ast.Compare,
        ast.AugAssign,
    )

    _ARITH = (ast.BinOp, ast.Compare, ast.AugAssign, ast.UnaryOp)

    def start_module(self, ctx: ModuleContext) -> None:
        self._time = _ImportAliases("time", ("time",))
        #: per-function-id: {var name: the time.time() call that fed it}
        self._assigned: dict[int, dict[str, ast.Call]] = {}
        #: per-function-id: names used as direct arithmetic operands
        self._arith_names: dict[int, set[str]] = {}

    def _scope_id(self, ctx: ModuleContext) -> int:
        return id(ctx.function_stack[-1]) if ctx.function_stack else 0

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._time.see(node)
            return
        scope = self._scope_id(ctx)
        if isinstance(node, (ast.BinOp, ast.Compare, ast.AugAssign)):
            names = self._arith_names.setdefault(scope, set())
            operands: list[ast.AST] = []
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            else:
                operands = [node.target, node.value]
            for operand in operands:
                if isinstance(operand, ast.Name):
                    names.add(operand.id)
            return
        assert isinstance(node, ast.Call)
        if not self._time.resolves(node, "time"):
            return
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                break
            if isinstance(ancestor, self._ARITH):
                ctx.add(
                    self.id,
                    node,
                    "time.time() feeds duration arithmetic; use "
                    "time.monotonic() or time.perf_counter() (wall clock is "
                    "for log-correlation timestamps only — the PR 8 uptime bug)",
                )
                return
        parent = ctx.parent(node)
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Name)
        ):
            self._assigned.setdefault(scope, {})[parent.targets[0].id] = node

    def _flush(self, ctx: ModuleContext, scope: int) -> None:
        assigned = self._assigned.pop(scope, {})
        arith = self._arith_names.pop(scope, set())
        for name, call in assigned.items():
            if name in arith:
                ctx.add(
                    self.id,
                    call,
                    f"wall-clock value {name!r} (= time.time()) is used in "
                    "arithmetic later in this scope; use time.monotonic() or "
                    "time.perf_counter() for durations",
                )

    def leave_function(self, ctx: ModuleContext, node: ast.AST) -> None:
        self._flush(ctx, id(node))

    def finish_module(self, ctx: ModuleContext) -> None:
        self._flush(ctx, 0)


# ----------------------------------------------------------------------
# no-blocking-in-async
# ----------------------------------------------------------------------
class NoBlockingInAsyncRule(Rule):
    """No synchronous sleeps, sockets, file or cache I/O in ``async def``.

    One blocking call inside the event loop stalls every pipelined
    connection at once.  Flags ``time.sleep``, bare ``open``,
    ``socket.*`` constructors, and direct ``ResultCache`` disk calls
    (``…cache.get/put/put_many/peek``) when the *nearest* enclosing
    function is ``async def`` — a sync helper nested inside (destined for
    ``run_in_executor``) is fine, as is handing the bound method itself
    to ``loop.run_in_executor(None, self.cache.get, key)``.
    """

    id = "no-blocking-in-async"
    motivation = "a blocking call in the event loop stalls every connection"
    scopes = ("repro.service",)
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    _CACHE_ATTRS = frozenset({"get", "put", "put_many", "peek"})

    def start_module(self, ctx: ModuleContext) -> None:
        self._time = _ImportAliases("time", ("sleep",))
        self._socket = _ImportAliases(
            "socket", ("socket", "create_connection", "socketpair")
        )

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._time.see(node)
            self._socket.see(node)
            return
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function():
            return
        blocked = self._blocking_name(node)
        if blocked is not None:
            fn = ctx.function_stack[-1].name
            ctx.add(
                self.id,
                node,
                f"blocking call {blocked} inside 'async def {fn}'; await an "
                "asyncio primitive or hand it to loop.run_in_executor(...)",
            )

    def _blocking_name(self, call: ast.Call) -> str | None:
        if self._time.resolves(call, "sleep"):
            return "time.sleep(...)"
        for name in self._socket.interesting:
            if self._socket.resolves(call, name):
                return f"socket.{name}(...)"
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "open(...)"
        if isinstance(func, ast.Attribute) and func.attr in self._CACHE_ATTRS:
            owner = _call_target(func.value)
            if owner is not None and owner.lower().split(".")[-1].endswith("cache"):
                return f"{owner}.{func.attr}(...) (ResultCache disk I/O)"
        return None


# ----------------------------------------------------------------------
# no-swallowed-exceptions
# ----------------------------------------------------------------------
class SwallowedExceptionsRule(Rule):
    """A broad handler must count, log, or re-raise — never just pass.

    The PR 8 ``Gauge`` bug class: scrape callbacks failed inside
    ``except Exception: return 0`` and the outage was invisible for a
    whole PR cycle.  A handler for ``except:``/``Exception``/
    ``BaseException`` whose body contains no call (log, counter,
    cleanup), no ``raise`` and no counter increment is a finding;
    narrow handlers (``except KeyError: pass``) are a legitimate idiom
    and stay legal.
    """

    id = "no-swallowed-exceptions"
    motivation = "PR 8 Gauge bug: broad silent handlers hide outages"
    node_types = (ast.Try,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for node in types:
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in self._BROAD:
                return True
        return False

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        assert isinstance(node, ast.Try)
        for handler in node.handlers:
            if not self._is_broad(handler):
                continue
            acts = any(
                isinstance(sub, (ast.Call, ast.Raise, ast.AugAssign))
                for stmt in handler.body
                for sub in ast.walk(stmt)
            )
            if not acts:
                caught = "except:" if handler.type is None else "a broad except"
                ctx.add(
                    self.id,
                    handler,
                    f"{caught} handler swallows the exception without a "
                    "counter increment, log call, or re-raise — the PR 8 "
                    "Gauge bug class; make the failure observable",
                )


# ----------------------------------------------------------------------
# cache-key-discipline
# ----------------------------------------------------------------------
class CacheKeyDisciplineRule(Rule):
    """Every request field is in the canonical key or explicitly excluded.

    The PR 5/7 invariant behind result-cache correctness: a field that
    changes the output but not the key serves stale results to every
    backend at once.  For each ``CanonicalRequest`` subclass (or
    ``*Request`` dataclass), every dataclass field declared in the
    class body must be referenced as ``self.<field>`` inside the
    class's own ``key_params``/``key_buffers``, or listed in its
    ``key_excluded`` frozenset with the reason documented at the field.
    ``key_excluded`` entries that name no declared field are typos and
    are flagged too.
    """

    id = "cache-key-discipline"
    motivation = "PR 5/7: a keyless output-changing field serves stale cache hits"
    node_types = (ast.ClassDef,)

    _KEY_METHODS = frozenset({"key_params", "key_buffers"})

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        assert isinstance(node, ast.ClassDef)
        base_names = {
            b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
            for b in node.bases
        }
        if not any(
            name == "CanonicalRequest" or (name.endswith("Request") and name != "Request")
            for name in base_names
        ):
            return
        fields: dict[str, ast.AnnAssign] = {}
        excluded: set[str] = set()
        excluded_node: ast.AST | None = None
        #: per method: every ``self.<attr>`` it touches (fields AND helper
        #: methods — ``key_buffers`` legitimately reaches fields through
        #: ``self.tree_columns()``, so the key set is the closure below).
        touches: dict[str, set[str]] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                annotation = ast.dump(stmt.annotation)
                if name == "key_excluded":
                    excluded_node = stmt
                    excluded |= self._string_constants(stmt.value)
                elif not name.startswith("_") and "ClassVar" not in annotation:
                    fields[name] = stmt
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                if "key_excluded" in targets:
                    excluded_node = stmt
                    excluded |= self._string_constants(stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                attrs = {
                    sub.attr
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
                touches[stmt.name] = attrs
        if not fields and not excluded:
            return
        referenced: set[str] = set()
        queue = [m for m in self._KEY_METHODS if m in touches]
        seen_methods: set[str] = set(queue)
        while queue:
            attrs = touches[queue.pop()]
            referenced |= attrs
            for helper in attrs & set(touches):
                if helper not in seen_methods:
                    seen_methods.add(helper)
                    queue.append(helper)
        for name, stmt in fields.items():
            if name not in referenced and name not in excluded:
                ctx.add(
                    self.id,
                    stmt,
                    f"field {name!r} of {node.name} is neither part of the "
                    "canonical key (key_params/key_buffers) nor listed in "
                    "key_excluded; an output-changing field outside the key "
                    "serves stale cache hits",
                    symbol=f"{ctx.qualname()}.{name}" if ctx.qualname() else name,
                )
        for name in sorted(excluded - set(fields)):
            ctx.add(
                self.id,
                excluded_node if excluded_node is not None else node,
                f"key_excluded entry {name!r} names no field declared on "
                f"{node.name}; remove it or fix the typo",
            )

    @staticmethod
    def _string_constants(node: ast.AST | None) -> set[str]:
        if node is None:
            return set()
        return {
            sub.value
            for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }


# ----------------------------------------------------------------------
# error-taxonomy
# ----------------------------------------------------------------------
class ErrorTaxonomyRule(Rule):
    """Every error-code literal exists in the one taxonomy.

    ``repro.api.errors.HTTP_STATUS`` is the single vocabulary (and
    ``ERROR_CODES`` its key set): a code constructed anywhere —
    ``ProtocolError``, ``api_error``, ``error_envelope``, ``_fail`` —
    that the taxonomy does not know would reach clients without an HTTP
    status or a CLI exit class.  The rule also pins, inside
    ``repro.api.errors`` itself, that ``ERROR_CODES`` stays derived
    from ``HTTP_STATUS`` (so "every code has a status" holds by
    construction).
    """

    id = "error-taxonomy"
    motivation = "one error vocabulary on every surface (PR 5 taxonomy)"
    node_types = (ast.Call, ast.Assign)

    _CONSTRUCTORS = frozenset(
        {"ProtocolError", "BackendError", "ApiError", "api_error",
         "error_envelope", "_fail"}
    )

    def __init__(self) -> None:
        from ...api.errors import ERROR_CODES

        #: ``transport`` is the one out-of-band code: connection-level
        #: failures that never produced an envelope (status 0).
        self._known = frozenset(ERROR_CODES) | {"transport"}

    def check(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            self._check_derivation(ctx, node)
            return
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in self._CONSTRUCTORS or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            code = first.value
            if code not in self._known:
                ctx.add(
                    self.id,
                    first,
                    f"error code {code!r} is not in repro.api.errors."
                    "ERROR_CODES; add it to HTTP_STATUS (with its status) "
                    "or use an existing code",
                )

    def _check_derivation(self, ctx: ModuleContext, node: ast.Assign) -> None:
        if ctx.module != "repro.api.errors":
            return
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "ERROR_CODES" not in targets:
            return
        value = node.value
        derived = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
            and value.args[0].id == "HTTP_STATUS"
        )
        if not derived:
            ctx.add(
                self.id,
                node,
                "ERROR_CODES must stay frozenset(HTTP_STATUS) so every code "
                "has an HTTP status by construction",
            )


ALL_RULES: tuple[type[Rule], ...] = (
    NoRecursionRule,
    MonotonicClockRule,
    NoBlockingInAsyncRule,
    SwallowedExceptionsRule,
    CacheKeyDisciplineRule,
    ErrorTaxonomyRule,
)

RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)


def default_rules(only: Any = None) -> list[Rule]:
    """Instances of every registered rule (optionally filtered by id)."""
    if only is not None:
        unknown = set(only) - set(RULE_IDS)
        if unknown:
            from .engine import LintError

            raise LintError(
                f"unknown rule id(s) {sorted(unknown)}; available: {list(RULE_IDS)}"
            )
        return [rule() for rule in ALL_RULES if rule.id in set(only)]
    return [rule() for rule in ALL_RULES]
