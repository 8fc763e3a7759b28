"""Measure-theoretic attention kernels, exact W1 transport, contraction
bounds, and their randomized empirical validation."""

__version__ = "0.1.0"

from .measures import (
    DomainBox,
    EmpiricalMeasure,
    PointCloud,
    barycenter,
    empirical,
    project_dirac,
)
from .potentials import (
    GAUSSIAN_LIP,
    CustomPotential,
    DotProduct,
    Gaussian,
    Potential,
    RegularityStats,
    SamplingConfig,
    ScaledDotProduct,
    evaluate,
    regularity_stats,
    regularity_stats_on_data,
)
from .kernels import (
    AttentionConfig,
    FfnConfig,
    FunctionLookup,
    Head,
    IdentityLookup,
    LinearLookup,
    Lookup,
    MultiHeadConfig,
    apply_lookup,
    attention_kernel,
    attention_pushforward,
    layer_map,
    multi_head,
    reference_multi_head,
    reference_self_attention,
    self_attention,
    softmatch_measure,
    softmatch_weights,
    transformer_layer,
)
from .transport import (
    TransportPlan,
    W1Result,
    w1,
    w1_product,
)
from .bounds import (
    BoundReport,
    bound_bounded_contraction,
    bound_component_taus,
    bound_cross_attention,
    bound_pointwise_query,
    bound_unbounded_equal_n,
    bound_unbounded_gaussian,
    ratio_lemma_bound,
    tau_lookup,
    tau_pi,
    tau_softmatch_bounded,
)
from .probes import (
    ProbeConfig,
    ProbeResult,
    check_local_lip_lemma,
    check_product_lemma,
    check_ratio_lemma,
    probe_component,
    probe_contraction,
)
from .dynamics import (
    DeqResult,
    InversionResult,
    Trajectory,
    TransformerLayerSpec,
    deq_solve,
    invert_residual,
    run_particles,
)
