"""The sort-plan intermediate representation.

A :class:`SortPlan` is an ordered sequence of :class:`PlanStep` records
— ``library-sort``, ``native-lsd``, ``hybrid-msd``, ``spill-runs``,
``kway-merge`` and the other :data:`STEP_KINDS` — each annotated with
sizing facts and a predicted cost.  The plan is *inspectable*
(``explain()``, the ``repro plan`` CLI verb), *serialisable*
(``to_dict()`` — what the bench harness records), and *executable*
(the executor registry in :mod:`repro.plan.executors` maps its
strategy onto an engine).  The planner only ever describes work here;
no step constructor moves a byte of input data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = ["PlanStep", "SortPlan", "STEP_KINDS"]

#: Every step kind a planner may emit, with the engine work it stands for.
STEP_KINDS = MappingProxyType({
    "local-sort": "one in-cache local sort of the whole input",
    "hybrid-msd": "MSD hybrid radix sort passes (§4)",
    "lsd-fallback": "LSD baseline for small inputs (§6.1)",
    "chunked-pipeline": "budget-sized chunks sorted in memory (§5)",
    "spill-runs": "memory-budgeted sorted runs spilled to disk",
    "kway-merge": "k-way merge of sorted runs",
    "native-lsd": "compiled counting-scatter passes (§4 in C, WC buffers)",
    "library-sort": "one np.sort over the §4.6 bits (packed-word pairs)",
})


@dataclass(frozen=True)
class PlanStep:
    """One unit of planned work with its sizing and cost annotations.

    ``params`` holds sizing facts (chunk/run plans, pass counts, …);
    values may be rich objects — ``to_dict()`` keeps JSON scalars and
    stringifies the rest.  ``predicted_seconds`` and ``bytes_moved``
    are the cost model's *a-priori* estimate, attached so a plan can be
    compared and explained without executing anything.
    """

    kind: str
    params: dict = field(default_factory=dict)
    predicted_seconds: float = 0.0
    bytes_moved: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(
                f"unknown step kind {self.kind!r}; "
                f"known: {', '.join(STEP_KINDS)}"
            )

    def to_dict(self) -> dict:
        params = {}
        for key, value in self.params.items():
            if value is None or isinstance(value, (bool, int, float, str)):
                params[key] = value
            else:
                params[key] = str(value)
        return {
            "kind": self.kind,
            "params": params,
            "predicted_seconds": self.predicted_seconds,
            "bytes_moved": self.bytes_moved,
        }


@dataclass(frozen=True)
class SortPlan:
    """An executable description of how one input will be sorted.

    Attributes
    ----------
    descriptor:
        The :class:`~repro.plan.descriptor.InputDescriptor` planned for.
    strategy:
        Which executor family runs the plan: ``"library"``,
        ``"native"``, ``"hybrid"``, ``"fallback"``, ``"hetero"``, or
        ``"external"``.
    engine:
        Human-readable name of what executes the plan (a class, or
        for ``hetero`` the chunk engine and the merge).
    steps:
        Ordered :class:`PlanStep` tuple.
    reason:
        One sentence: why the planner chose this strategy.
    notes:
        Zero or more tier-selection footnotes (why the native tier was
        or was not chosen, say) — advisory context that rides along
        without disturbing the strategy/reason contract.
    cost_source:
        Where ``predicted_seconds`` came from: ``"paper-analytical"``
        (the §6 Titan X constants, what the planner prices every plan
        with) or ``"measured-feedback"`` (the plan's bytes at the rate
        the sort service measured for its strategy, layout and size
        class; see :class:`~repro.cost.feedback.CostFeedback`).
    """

    descriptor: object
    strategy: str
    engine: str
    steps: tuple[PlanStep, ...]
    reason: str = ""
    notes: tuple[str, ...] = ()
    cost_source: str = "paper-analytical"

    @property
    def predicted_seconds(self) -> float:
        return sum(step.predicted_seconds for step in self.steps)

    @property
    def bytes_moved(self) -> int:
        return sum(step.bytes_moved for step in self.steps)

    def step(self, kind: str) -> PlanStep:
        """The first step of the given kind (raises if absent)."""
        for step in self.steps:
            if step.kind == kind:
                return step
        raise KeyError(f"plan has no {kind!r} step")

    @property
    def run_plan(self):
        """The RunPlan that cuts the input: a ``spill-runs`` step's runs
        or a ``chunked-pipeline`` step's chunks."""
        return self.steps[0].params["run_plan"]

    def summary(self) -> str:
        """One-line label: ``strategy (step, step)`` — what the CLI prints."""
        return f"{self.strategy} ({', '.join(s.kind for s in self.steps)})"

    def explain(self) -> str:
        """Multi-line human explanation — what ``repro plan`` prints."""
        desc = self.descriptor
        lines = [
            f"input           : {desc.describe()}",
            f"layout          : {desc.key_bits}-bit keys"
            + (f" + {desc.value_bits}-bit values" if desc.has_values else ""),
            f"strategy        : {self.strategy} ({self.engine})",
            f"reason          : {self.reason}",
            f"steps           : {len(self.steps)}",
        ]
        for i, step in enumerate(self.steps, 1):
            sizing = ", ".join(
                f"{k}={v}"
                for k, v in step.params.items()
                if isinstance(v, (bool, int, float, str))
            )
            lines.append(
                f"  {i}. {step.kind:16s} {sizing}"
            )
            lines.append(
                f"     predicted {step.predicted_seconds * 1e3:.3f} ms, "
                f"{step.bytes_moved / 1e6:.1f} MB moved"
            )
        lines.append(
            f"predicted total : {self.predicted_seconds * 1e3:.3f} ms "
            f"({self.bytes_moved / 1e6:.1f} MB moved)"
        )
        lines.append(f"cost source     : {self.cost_source}")
        for note in self.notes:
            lines.append(f"note            : {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready plan record (descriptor + steps + predictions)."""
        return {
            "descriptor": self.descriptor.to_dict(),
            "strategy": self.strategy,
            "engine": self.engine,
            "reason": self.reason,
            "notes": list(self.notes),
            "steps": [step.to_dict() for step in self.steps],
            "predicted_seconds": self.predicted_seconds,
            "bytes_moved": self.bytes_moved,
            "cost_source": self.cost_source,
        }
