"""Structure learning for discrete Markov random fields by greedy
conditional-entropy descent, with exact Ising oracles, samplers, bound
calculators, and an experiment harness."""

from .dataset import (
    Alphabet,
    Assignment,
    CapacityError,
    DatasetError,
    DiscreteDataset,
    EmptyDatasetError,
    IngestOptions,
    ParseError,
    UnknownTokenError,
    empirical_prob,
    filter_participation,
    load_csv,
    remap_values,
    write_csv,
)
from .entropy import (
    DistributionSource,
    EmpiricalSource,
    ExactSource,
    check_entropy_l1_bound,
    check_pinsker,
    conditional_entropy,
    l1_distance,
    mutual_information,
)
from .generators import ModelSpec, WeightRule, build, model_from_strings
from .gibbs import GibbsChains, GibbsConfig, gibbs_sample
from .learner import (
    LearnResult,
    LearnerConfig,
    NeighborhoodTrace,
    chow_liu,
    greedy_neighborhood,
    learn_structure,
    prune_neighborhood,
    prune_result,
)
from .models import (
    FactorGraph,
    IsingModel,
    JointDistribution,
    MarkovGraph,
    exact_joint,
    exact_sample,
    factor_graph,
    girth,
    graph_distance,
    read_edge_list,
    to_dot,
    tree_spin_posterior,
    write_edge_list,
)
from .theory import (
    BoundReport,
    DecayProfile,
    decay_profile,
    decay_threshold,
    ising_guarantee,
    ising_nondegeneracy_epsilon,
    model_gap,
    nondegeneracy_gap,
    sample_size_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
