"""SGB010: acquired resources must release on exception paths.

Three shapes of leak this rule catches, all variations of "acquired
outside ``with``, release not post-dominated":

* **Context managers never entered** — ``memory_tracking()`` returns a
  context manager; calling it without a ``with`` (or a later ``with``
  on the stored name) starts nothing and silently measures nothing.
  (Span factories are the same shape but belong to SGB004, which owns
  the whole span lifecycle — this rule stays out of its way so one
  defect never produces two diagnostics.)
* **Handle objects** — ``SamplingProfiler()``, ``ProcessPoolExecutor``
  /``ThreadPoolExecutor`` assigned to a local that never escapes the
  function must be released (``.stop()``/``.shutdown()``/``.close()``)
  inside a ``finally`` — a release in straight-line code leaks the
  thread/process on any exception between acquire and release.
  Handles that escape (returned, yielded, stored on ``self``, passed to
  another call) transfer ownership and are skipped.
* **Raw lock acquires** — ``self.<lock>.acquire()`` whose ``release()``
  is not inside a ``finally`` (or is missing entirely).  Deliberate
  ownership transfer (``Database._acquire_statement_lock`` hands the
  held lock to its caller) takes a justified pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import parent_map
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register

#: Resource class tail -> accepted release method names.
RESOURCE_CLASSES: Dict[str, Set[str]] = {
    "SamplingProfiler": {"stop", "close"},
    "ProcessPoolExecutor": {"shutdown"},
    "ThreadPoolExecutor": {"shutdown"},
    "QueryLog": {"close"},
}

#: Callables returning context managers that do nothing until entered.
#: Span factories are deliberately absent: SGB004 owns span lifecycle.
CM_FACTORIES = frozenset({"memory_tracking"})


@register
class ResourceEscapeRule(ProjectRule):
    """Resources acquired outside ``with`` need a ``finally`` release.

    Flags: (1) ``memory_tracking()`` results that are neither entered
    via ``with`` nor escape the function — the context manager never
    runs, so the measurement silently doesn't
    happen; (2) profiler/pool handles bound to
    a local whose ``.stop()``/``.shutdown()`` is missing or sits outside
    any ``finally`` — an exception between acquire and release leaks
    the sampler thread or worker processes; (3) ``self.<lock>.acquire()``
    without a ``finally``-guarded ``release()``.

    Prefer ``with`` — every flagged class supports it.  For genuine
    ownership transfer (acquiring helpers, handles handed to a caller),
    suppress with a justified ``# sgblint: disable=SGB010``.
    """

    id = "SGB010"
    title = "resource acquired without exception-safe release"

    def check_project(self, project) -> Iterator[Finding]:
        for qualname in sorted(project.table.functions):
            sym = project.table.functions[qualname]
            if sym.nested:
                continue
            yield from self._check_function(project, sym)
        yield from self._check_lock_acquires(project)

    # -- per-function resource tracking ------------------------------------
    def _check_function(self, project, sym) -> Iterator[Finding]:
        parents = parent_map(sym.node)
        with_names, with_exprs = self._with_usage(sym.node)
        # Names used as with-contexts anywhere in the function are
        # considered entered; calls appearing as context_exprs likewise.
        for node in ast.walk(sym.node):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in with_exprs:
                continue
            kind = self._cm_factory_kind(project, sym, node)
            if kind is None:
                continue
            target = self._assign_target(parents, node)
            if target is not None and (target in with_names
                                       or self._escapes(sym.node, target)):
                continue
            if target is None and self._is_discarded_ok(parents, node):
                continue
            yield self.finding_at(
                sym.path, node,
                f"{kind}(...) returns a context manager that is never "
                f"entered here — wrap it in `with` or the "
                f"acquire/release never runs",
            )
        yield from self._check_handles(project, sym, parents, with_exprs,
                                       with_names)

    def _with_usage(self, func_node: ast.AST,
                    ) -> Tuple[Set[str], Set[int]]:
        names: Set[str] = set()
        exprs: Set[int] = set()
        for node in ast.walk(func_node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    # ``with a() if cond else b():`` enters either arm.
                    arms = ([expr.body, expr.orelse]
                            if isinstance(expr, ast.IfExp) else [expr])
                    for arm in arms:
                        exprs.add(id(arm))
                        if isinstance(arm, ast.Name):
                            names.add(arm.id)
        return names, exprs

    def _cm_factory_kind(self, project, sym,
                         node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in CM_FACTORIES:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in CM_FACTORIES:
            return func.attr
        return None

    def _assign_target(self, parents, node: ast.Call) -> Optional[str]:
        parent = parents.get(node)
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1 \
                and isinstance(parent.targets[0], ast.Name):
            return parent.targets[0].id
        return None

    def _is_discarded_ok(self, parents, node: ast.Call) -> bool:
        """A CM factory call that is returned or passed along escapes —
        the caller owns entering it."""
        parent = parents.get(node)
        return isinstance(parent, (ast.Return, ast.Yield, ast.Call,
                                   ast.Await))

    def _escapes(self, func_node: ast.AST, name: str) -> bool:
        """True when ``name`` is returned, yielded, stored onto an
        object/container, or passed as an argument — ownership leaves
        this function, release is someone else's job."""
        for node in ast.walk(func_node):
            if isinstance(node, (ast.Return, ast.Yield)) and \
                    node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        for sub in ast.walk(node.value):
                            if isinstance(sub, ast.Name) and \
                                    sub.id == name:
                                return True
        return False

    # -- handle objects -----------------------------------------------------
    def _check_handles(self, project, sym, parents, with_exprs,
                       with_names) -> Iterator[Finding]:
        handles: List[Tuple[str, str, ast.Call]] = []
        for node in ast.walk(sym.node):
            if not isinstance(node, ast.Call) or id(node) in with_exprs:
                continue
            tail = self._resource_tail(project, sym, node)
            if tail is None:
                continue
            target = self._assign_target(parents, node)
            if target is None or target in with_names:
                continue
            if self._escapes(sym.node, target):
                continue
            handles.append((target, tail, node))
        for name, tail, node in handles:
            release_methods = RESOURCE_CLASSES[tail]
            state = self._release_state(sym.node, name, release_methods)
            if state == "finally":
                continue
            if state == "plain":
                yield self.finding_at(
                    sym.path, node,
                    f"{tail} handle `{name}` is released outside any "
                    f"`finally` — an exception before the release leaks "
                    f"it; use `with` or try/finally",
                )
            else:
                yield self.finding_at(
                    sym.path, node,
                    f"{tail} handle `{name}` is never released in this "
                    f"function and never escapes it — use `with` or "
                    f"call {'/'.join(sorted(release_methods))}() in a "
                    f"finally",
                )

    def _resource_tail(self, project, sym,
                       node: ast.Call) -> Optional[str]:
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in RESOURCE_CLASSES:
            return name
        return None

    def _release_state(self, func_node: ast.AST, name: str,
                       release_methods: Set[str]) -> str:
        """'finally' | 'plain' | 'none' for ``name``'s release call."""
        state = "none"
        for node in ast.walk(func_node):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for sub in ast.walk(ast.Module(body=node.finalbody,
                                           type_ignores=[])):
                if self._is_release_call(sub, name, release_methods):
                    return "finally"
        for node in ast.walk(func_node):
            if self._is_release_call(node, name, release_methods):
                state = "plain"
        return state

    @staticmethod
    def _is_release_call(node: ast.AST, name: str,
                         release_methods: Set[str]) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in release_methods
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name)

    # -- raw lock acquires ---------------------------------------------------
    def _check_lock_acquires(self, project) -> Iterator[Finding]:
        for qualname in sorted(project.flow.flows):
            flow = project.flow.flows[qualname]
            for acq in flow.acquires:
                if acq.released_in_finally:
                    continue
                if acq.released_anywhere:
                    yield self.finding_at(
                        flow.sym.path, acq.node,
                        f"self.{acq.attr}.acquire() in "
                        f"{flow.sym.name}() releases outside any "
                        f"`finally` — an exception leaves the lock held "
                        f"forever; use `with self.{acq.attr}` or "
                        f"try/finally",
                    )
                else:
                    yield self.finding_at(
                        flow.sym.path, acq.node,
                        f"self.{acq.attr}.acquire() in "
                        f"{flow.sym.name}() has no release on any path "
                        f"in this function — if this transfers lock "
                        f"ownership to the caller, justify with a "
                        f"pragma",
                    )
