"""Hybrid data lake: relational tables, document vector index, global schema."""

from .ingest import (
    CHUNK_OVERLAP_CHARS,
    CHUNK_TARGET_CHARS,
    IngestError,
    IngestReport,
    build_store,
    chunk_document,
    ingest,
    load_documents,
    load_tables,
)
from .relational import (
    Aggregate,
    ChunkRef,
    Filter,
    Join,
    MiniQuerySyntaxError,
    ResultSet,
    RowRef,
    StoreQueryError,
    StructuredQuery,
    Table,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
    exec_structured,
    parse_mini_query,
    ref_from_json,
)
from .schema import (
    Column,
    CollectionSchema,
    CrossLink,
    ForeignKey,
    GlobalSchema,
    TableSchema,
    signature_of,
)
from .store import Store, StoreFileError, load_store, save_store
from .vector import (
    Chunk,
    ChunkHit,
    DEFAULT_ALPHA,
    DEFAULT_DIM,
    EmptyIndexError,
    HashedBowEmbedder,
    STOPWORDS,
    VectorIndex,
    cosine,
    sparse_dot,
    sparse_vector,
    tokenize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
