"""First-order logic query answering over incomplete knowledge graphs.

The pipeline: load a triplet KG, train an embedding link-prediction scorer,
calibrate its scores into [0,1] (normalize, adapt per-(head,relation) scales,
pin known facts to 1), materialize a sparse calibrated tensor, and answer
logic queries by forward propagation of fuzzy-set operations over it.
"""

from kgreason.graph import KnowledgeGraph, Triplet, Vocab, add_inverse_relations, load_kg, load_split
from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    Projection,
    QueryRecord,
    Union,
    classify_structure,
    parse,
    serialize,
)
from kgreason.fuzzy import GradientTape, MembershipVector, complement, evaluate, intersect, project, union
from kgreason.scorer import EmbeddingModel, TrainConfig, train
from kgreason.calibrate import (
    AdaptationMatrix,
    CalibrationConfig,
    CalibratedRows,
    NormalizedScorer,
    ablation_provider,
    adapt,
)
from kgreason.tensor import CalibratedTensor, SparsityReport, build_tensor
from kgreason.harness import (
    EvalReport,
    brute_force_answers,
    evaluate_run,
    generate_queries,
    rank_hard_answer,
    rank_hard_answers,
    split_answers,
)

__version__ = "0.1.0"
