"""End-to-end wiring: cache -> planner -> validation -> DataOps -> execution.

``Pipeline.answer_question`` drives one question through the full loop:
cache lookup (hits still get validated), plan generation on a miss,
structural validation plus the optional heuristic audit, the DataOps
remediation loop on any failure (bounded by the iteration budget; a budget
of 0 turns it off), wave execution with resume-from-unexecuted-nodes after
runtime fixes, answer synthesis, and finally cache insertion of the
validated plan.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from .adapters import (
    DEFAULT_TOP_K,
    ExternalPlanner,
    Planner,
    PlannerMissError,
    ScriptedPlanner,
)
from .cache import DEFAULT_CAPACITY, DEFAULT_TAU, CacheFileError, PlanCache
from .dataops import (
    ActionKind,
    DEFAULT_MAX_ITERATIONS,
    ExternalReplanner,
    NoOpReplanner,
    Replanner,
    diagnose,
    remediate,
)
from .executor import DEFAULT_NODE_TIMEOUT, execute_plan, make_default_adapters
from .jsonfiles import read_json
from .lineage import LineageLog, LineageRecord
from .plan_ir import Context, NodeStatus, Plan, scrub_plan
from .stores.schema import COLUMN_TYPES
from .stores.store import Store, load_store
from .validator import AuditorUnavailable, HeuristicAuditor, audit_plan, validate_plan

logger = logging.getLogger(__name__)

EXIT_CODES = {"ok": 0, "execution_failed": 3, "unrecoverable": 4, "no_plan": 4}


@dataclass
class PipelineConfig:
    """Every setting; a value from a file, the env, a flag or a caller is checked by its annotation."""

    store_dir: str | None = None
    cache_capacity: int = DEFAULT_CAPACITY
    tau: float = DEFAULT_TAU
    top_k: int = DEFAULT_TOP_K
    max_fix_iterations: int = field(default=DEFAULT_MAX_ITERATIONS, metadata={"help": "0 turns DataOps off"})
    node_timeout: float = DEFAULT_NODE_TIMEOUT
    planner: str | None = field(default=None, metadata={"help": "scripted:<file> or external:<command>"})
    replanner: str | None = field(default=None, metadata={"help": "external:<command>"})
    context_role: str = "default"
    policy_flags: tuple[str, ...] = ()
    audit: bool = True
    cache_enabled: bool = True
    cache_file: str | None = None
    lineage_path: str | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith(" | None"):
                continue
            if not field_type(f).accepts(value):
                raise ValueError(f"{f.name}: expected {f.type}, got {value!r}")
            if isinstance(value, list):
                setattr(self, f.name, tuple(value))
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_fix_iterations < 0:
            raise ValueError("max_fix_iterations must be >= 0")

    @property
    def context(self) -> Context:
        return Context(role=self.context_role, policy_flags=frozenset(self.policy_flags))


def parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(s for s in raw.split(",") if s)


class FieldType(NamedTuple):
    parse: Callable[[str], Any]  # an ADOT_* value or a flag
    accepts: Callable[[Any], bool]  # any value: a config file's, a constructor's


_FIELD_TYPES: dict[str, FieldType] = {
    "bool": FieldType(parse_bool, COLUMN_TYPES["bool"].holds),
    "int": FieldType(int, COLUMN_TYPES["int"].holds),
    "float": FieldType(float, COLUMN_TYPES["float"].holds),
    "str": FieldType(str, COLUMN_TYPES["text"].holds),
    "tuple[str, ...]": FieldType(
        _parse_list, lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v)
    ),
}


def field_type(f: dataclasses.Field) -> FieldType:
    """The type of a config field by its annotation; ``X | None`` is typed as ``X``."""
    return _FIELD_TYPES[f.type.removesuffix(" | None")]


def _config_fields(obj: Any) -> dict[str, Any]:
    if not isinstance(obj, dict):
        raise ValueError("not a config (a JSON object)")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(PipelineConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    PipelineConfig(**obj)  # checks the file's own values, so a bad one names the file
    return obj


def load_config(
    path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    **overrides: Any,
) -> PipelineConfig:
    """Build a config with precedence: defaults < file < ADOT_* env < overrides.

    A key in the file that is not a config field, or a value its field does
    not accept, is a ``ValueError`` naming the file; an ``ADOT_*`` variable
    that names no config field, or whose value does not parse, is one
    naming the variable.
    """
    data: dict[str, Any] = {}
    if path is not None:
        data.update(read_json(path, _config_fields, ValueError))
    env = os.environ if env is None else env
    variables = {f"ADOT_{f.name.upper()}": f for f in dataclasses.fields(PipelineConfig)}
    unknown = sorted(key for key in env if key.startswith("ADOT_") and key not in variables)
    if unknown:
        raise ValueError(f"unknown ADOT_* variable(s): {', '.join(unknown)}")
    for key, f in variables.items():
        if key in env:
            try:
                data[f.name] = field_type(f).parse(env[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    data.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**data)


def build_planner(spec: str | None) -> Planner | None:
    if spec is None:
        return None
    if spec.startswith("scripted:"):
        return ScriptedPlanner.from_file(spec.split(":", 1)[1])
    if spec.startswith("external:"):
        return ExternalPlanner(spec.split(":", 1)[1])
    raise ValueError(f"unknown planner spec {spec!r}")


def build_replanner(spec: str | None) -> Replanner:
    if spec is None:
        return NoOpReplanner()
    if spec.startswith("external:"):
        return ExternalReplanner(spec.split(":", 1)[1])
    raise ValueError(f"unknown replanner spec {spec!r}")


@dataclass
class PipelineResult:
    status: str  # ok | execution_failed | unrecoverable | no_plan
    final_answer: str | None = None
    answers: tuple = ()
    feedback: tuple = ()
    messages: tuple = ()
    plan: Plan | None = None
    cache_strategy: str | None = None
    lineage: LineageLog | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


class Pipeline:
    """One store + cache + planner wired together; sessions share the cache.

    Instrumentation counters (``planner_calls``, ``validation_calls``) back
    the contracts that cache hits bypass planning but never validation.
    """

    def __init__(
        self,
        store: Store,
        config: PipelineConfig | None = None,
        planner: Planner | None = None,
        replanner: Replanner | None = None,
        auditor: Any = None,
        adapters: Mapping | None = None,
    ):
        self.store = store
        self.config = config or PipelineConfig()
        self.planner = planner if planner is not None else build_planner(self.config.planner)
        self.replanner = replanner if replanner is not None else build_replanner(self.config.replanner)
        self.cache = PlanCache(capacity=self.config.cache_capacity, tau=self.config.tau)
        if self.config.cache_file and Path(self.config.cache_file).exists():
            try:
                self.cache = PlanCache.load(
                    self.config.cache_file, capacity=self.config.cache_capacity, tau=self.config.tau
                )
            except CacheFileError as exc:
                logger.warning("starting with an empty plan cache: %s", exc)
        self.auditor = auditor if auditor is not None else (HeuristicAuditor() if self.config.audit else None)
        self.adapters = adapters or make_default_adapters(store, k=self.config.top_k)
        self.planner_calls = 0
        self.validation_calls = 0

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "Pipeline":
        """A pipeline over ``config.store_dir``; search fuses with the store's ``alpha`` (``meta.json``)."""
        if not config.store_dir:
            raise ValueError("config.store_dir is required")
        return cls(store=load_store(config.store_dir), config=config)

    def save_cache(self) -> None:
        """Write the cache file, if one is configured. A file that cannot be
        written is logged, not raised: the answer stands and the cache stays
        in memory."""
        if self.config.cache_file:
            try:
                self.cache.save(self.config.cache_file)
            except OSError as exc:
                logger.warning("plan cache not saved to %s: %s", self.config.cache_file, exc)

    def _record_dataops(self, lineage: LineageLog, action, diagnoses) -> None:
        lineage.append(
            LineageRecord(
                kind="dataops",
                status=action.kind.value,
                extra={
                    "diagnoses": [d.error_class.value for d in diagnoses],
                    "messages": list(action.messages),
                },
            )
        )

    def answer_question(
        self,
        question: str,
        on_record: Callable[[LineageRecord], None] | None = None,
    ) -> PipelineResult:
        """Answer one question; ``on_record`` sees each lineage record as it is written."""
        cfg = self.config
        signature = self.store.signature
        context = cfg.context
        items: list = []
        plan = cache_strategy = exec_result = None
        status, messages = "no_plan", ()
        attempts = 0
        lineage = LineageLog(cfg.lineage_path, on_record=on_record)
        try:
            try:
                plan, cache_strategy = self._obtain_plan(question, signature, context, lineage)
            except PlannerMissError:
                messages = ("no plan available for this question",)
            else:
                if plan is None:
                    messages = ("no planner configured",)
            if plan is not None:
                plan = replace(plan, source_query=question, schema_signature=signature, context=context)
                bindings: dict = {}
                while True:
                    self.validation_calls += 1
                    items = list(validate_plan(plan, self.store.schema).errors)
                    if not items and self.auditor is not None:
                        try:
                            items = list(audit_plan(plan, question, self.store.schema, self.auditor).errors)
                        except AuditorUnavailable as exc:
                            status, messages = "unrecoverable", (f"auditor unavailable: {exc}",)
                            break
                        except Exception as exc:  # an auditor bug ends the answer, not the caller
                            status = "unrecoverable"
                            messages = (f"auditor failed: {type(exc).__name__}: {exc}",)
                            break
                    if items:
                        status = "unrecoverable"
                    else:
                        exec_result = execute_plan(
                            plan,
                            self.store,
                            adapters=self.adapters,
                            node_timeout=cfg.node_timeout,
                            lineage=lineage,
                            initial_bindings=bindings,
                        )
                        bindings = dict(exec_result.bindings)
                        plan = exec_result.plan_after
                        items = list(exec_result.feedback)
                        status = "execution_failed" if items else "ok"
                    if status == "ok":
                        break
                    if not cfg.max_fix_iterations:
                        messages = tuple(
                            getattr(i, "detail", None) or getattr(i, "message", str(i)) for i in items
                        )
                        break
                    diagnoses = diagnose(items)
                    action = remediate(
                        plan, self.store.schema, attempts, diagnoses,
                        replanner=self.replanner, max_iterations=cfg.max_fix_iterations,
                    )
                    attempts += 1
                    self._record_dataops(lineage, action, diagnoses)
                    if action.kind not in (ActionKind.FIX, ActionKind.REPLAN):
                        messages = action.messages
                        break
                    if action.kind is ActionKind.REPLAN:
                        plan, bindings = _resume_after_replan(plan, action.plan, bindings)
                    else:
                        plan = action.plan
                if status == "ok" and cache_strategy is None and cfg.cache_enabled:
                    self.cache.insert(question, signature, context, plan)
                    self.save_cache()
        finally:
            lineage.close()
        return PipelineResult(
            status=status,
            final_answer=exec_result.final_answer if exec_result else None,
            answers=exec_result.answers if status == "ok" else (),
            feedback=tuple(items),
            messages=messages,
            plan=plan,
            cache_strategy=cache_strategy,
            lineage=lineage,
        )

    def _obtain_plan(
        self, question: str, signature: str, context: Context, lineage: LineageLog
    ) -> tuple[Plan | None, str | None]:
        if self.config.cache_enabled:
            hit = self.cache.lookup(question, signature, context)
            if hit is not None:
                extra = {"strategy": hit.strategy, "cached_query": hit.cached_query,
                         "similarity": hit.similarity, "slots": hit.slots}
                lineage.append(LineageRecord(kind="cache", status="hit", extra=extra))
                return hit.plan, hit.strategy
        if self.planner is None:
            return None, None
        self.planner_calls += 1
        return scrub_plan(self.planner.generate(question)), None


def _resume_after_replan(old_plan: Plan, new_plan: Plan, bindings: Mapping) -> tuple[Plan, dict]:
    """The new plan and the bindings it keeps: those whose label and question survive.

    An executed node of the new plan whose binding is not kept goes back to
    pending, so it runs again.
    """
    old_by_label = {sq.label: sq for sq in old_plan.subquestions}
    keep: dict = {}
    nodes = []
    for sq in new_plan.subquestions:
        if sq.executed:
            prior = old_by_label.get(sq.label)
            if prior is not None and prior.question == sq.question and sq.label in bindings:
                keep[sq.label] = bindings[sq.label]
            else:
                sq = replace(sq, status=NodeStatus.PENDING, partial_result_columns=None)
        nodes.append(sq)
    return replace(new_plan, subquestions=tuple(nodes)), keep
