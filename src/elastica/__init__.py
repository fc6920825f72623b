"""Euler elasticae: closed-form extremals, their discrete symmetries, and
the Maxwell-point upper bound on when they stop being optimal."""

__version__ = "0.1.0"

from .elliptic import (
    EllipticDivergenceError,
    EllipticDomainError,
    JacobiValues,
    Modulus,
    ellint_E,
    ellint_E_inc,
    ellint_F_inc,
    ellint_K,
    jacobi,
    jacobi_add,
    jacobi_derivs_k,
    jacobi_recip_modulus,
)
from .expmap import (
    ElasticaClass,
    State,
    classify,
    elastic_energy_closed,
    exp_map,
    sample_elastica,
)
from .maxwell import (
    MaxwellReport,
    MaxwellStratum,
    cut_time_bound,
    f1,
    f2,
    find_k0,
    find_kstar,
    g1_n1,
    g1_n2,
    in_maxwell,
    p1_roots,
    p_g1,
    u_a1,
    u_h1,
    unit_cut_time_bound,
)
from .oracle import (
    BvpSolution,
    IntegratorConfig,
    UnattainableTargetError,
    attainable,
    bvp_shoot,
    integrate_extremal,
)
from .phase import (
    Covector,
    EllipticCoords,
    Stratum,
    UnsupportedStratumError,
    energy,
    flow_vertical,
    from_elliptic,
    period,
    stratify,
    to_elliptic,
    wrap_angle,
)
from .symmetry import (
    MaxwellCoords,
    P_of,
    Q_of,
    Reflection,
    is_fixed_covector,
    is_fixed_state,
    m3_branch,
    maxwell_coords,
    reflect_covector,
    reflect_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
