"""adot: DAG-orchestrated multi-hop query engine over a hybrid data lake.

Compiles natural-language questions into validated DAG plans of atomic
sub-queries, executes them in dependency waves across an in-memory relational
store and a hybrid dense+sparse vector index, repairs failing plans through
a bounded diagnose/fix/replan loop, caches validated plans (exact, template
and semantic retrieval with LRU eviction), and records full data lineage
for every answer.
"""

from .adapters import (
    AdapterOutcome,
    ExternalPlanner,
    PatternTranslator,
    Planner,
    PlannerMissError,
    ResolvedSubQuery,
    ScriptedPlanner,
    TranslationFailedError,
    run_structured_adapter,
    run_vector_adapter,
)
from .cache import (
    CacheEntry,
    CacheHit,
    CacheKey,
    PlanCache,
    build_template,
    instantiate_skeleton,
    normalize_query,
)
from .dataops import (
    ActionKind,
    DataOpsAction,
    Diagnosis,
    DiagnosisClass,
    ExternalReplanner,
    NoOpReplanner,
    Replanner,
    diagnose,
    remediate,
)
from .executor import (
    Binding,
    CycleDetectedError,
    ExecutionFeedback,
    ExecutionResult,
    FeedbackClass,
    MissingKeyError,
    NoExposedResultsError,
    UnboundVariableError,
    execute_plan,
    make_default_adapters,
    resolve_question,
    slim_binding,
    synthesize_answer,
    topological_waves,
)
from .lineage import (
    LineageLog,
    LineageRecord,
    MissingRecordError,
    read_lineage,
    trace_answer,
)
from .pipeline import (
    Pipeline,
    PipelineConfig,
    PipelineResult,
    load_config,
)
from .plan_ir import (
    Context,
    NodeStatus,
    ParseError,
    Plan,
    SubQuery,
    Tool,
    VarRef,
    build_dependency_graph,
    extract_var_refs,
    find_cycle,
    parse_plan,
    serialize_plan,
)
from .stores import (
    Chunk,
    ChunkHit,
    ChunkRef,
    GlobalSchema,
    IngestReport,
    ResultSet,
    RowRef,
    Store,
    StructuredQuery,
    Table,
    VectorIndex,
    chunk_document,
    exec_structured,
    ingest,
    load_store,
    parse_mini_query,
    save_store,
    signature_of,
)
from .validator import (
    AuditorUnavailable,
    ErrorCode,
    HeuristicAuditor,
    ValidationError,
    ValidationReport,
    audit_plan,
    validate_plan,
)

__version__ = "0.1.0"
