"""Fine-grained cube authorization (Wang–Jajodia–Wijesekera style, [14]).

Per role, a rule fixes: the *finest* dimension levels the role may group by,
slices it must never see, and a minimum contributor count per published
cell. Enforcement is two-phase: a static check of the cube request, then a
dynamic pass that suppresses cells whose lineage has too few contributors
(possible because every engine aggregate carries its contributor set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, PolicyError
from repro.policy.rbac import Decision
from repro.policy.subjects import AccessContext
from repro.relational.engine import execute
from repro.relational.expressions import Expr
from repro.relational.query import Query
from repro.relational.table import Table
from repro.warehouse.cube import Cube, CubeQuery

__all__ = ["CubeAuthorizationRule", "CubeAuthorizer"]


@dataclass(frozen=True)
class CubeAuthorizationRule:
    """What one role may see of one cube."""

    role: str
    max_detail: dict[str, str]  # dimension name -> finest allowed level attr
    min_cell_contributors: int = 1
    denied_slices: tuple[Expr, ...] = ()  # cells matching any are forbidden

    def __post_init__(self) -> None:
        if self.min_cell_contributors < 1:
            raise PolicyError("min_cell_contributors must be at least 1")


@dataclass
class CubeAuthorizer:
    """Authorization rules for one cube, plus the guarded evaluation path."""

    cube: Cube
    rules: dict[str, CubeAuthorizationRule] = field(default_factory=dict)

    def add_rule(self, rule: CubeAuthorizationRule) -> CubeAuthorizationRule:
        if rule.role in self.rules:
            raise PolicyError(f"cube rule for role {rule.role!r} already exists")
        self.rules[rule.role] = rule
        return rule

    def _rule_for(self, context: AccessContext) -> CubeAuthorizationRule | None:
        for role in sorted(r.name for r in context.user.roles):
            if role in self.rules:
                return self.rules[role]
        return None

    def check(self, context: AccessContext, cube_query: CubeQuery) -> Decision:
        """Static admissibility of the request for this subject."""
        rule = self._rule_for(context)
        if rule is None:
            return Decision(False, "no cube authorization for any of the user's roles")
        star = self.cube.star
        for attr in cube_query.group_by:
            dim = star.attribute_dimension(attr)
            allowed_attr = rule.max_detail.get(dim.name)
            if allowed_attr is None:
                return Decision(
                    False, f"role {rule.role!r} may not group by dimension {dim.name!r}"
                )
            if dim.level_of(attr) < dim.level_of(allowed_attr):
                return Decision(
                    False,
                    f"{attr!r} is finer than role {rule.role!r}'s allowed level "
                    f"{allowed_attr!r} on {dim.name!r}",
                )
        return Decision(True, f"admissible for role {rule.role!r}")

    def evaluate(
        self, context: AccessContext, cube_query: CubeQuery, *, name: str = "cube_result"
    ) -> tuple[Table, int]:
        """Check, evaluate, and suppress undersized cells.

        Returns the published table and the number of suppressed cells.
        Raises :class:`PolicyError` if the static check fails or a denied
        slice cannot guard the cube.
        """
        decision = self.check(context, cube_query)
        if not decision:
            raise PolicyError(f"cube request denied: {decision.reason}")
        rule = self._rule_for(context)
        assert rule is not None  # check() succeeded
        # Denied slices guard the base tables they are read from, so data
        # from a denied region never even contributes to published cells.
        catalog = self.cube.catalog
        wide = Query.from_(self.cube.star.wide_view_name())
        query = self.cube.compile(cube_query)
        try:
            rows = [catalog.restate(~p, wide) for p in rule.denied_slices]
            guards = catalog.guards(query, rows)
        except CatalogError as exc:
            raise PolicyError(f"a denied slice cannot guard the cube: {exc}") from None
        result = execute(query, catalog.guarded(guards), name=name)
        # Dynamic pass: contributor thresholds via lineage.
        return result.drop_undersized(rule.min_cell_contributors)
