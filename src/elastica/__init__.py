"""Euler elasticae: closed-form extremals, their discrete symmetries, and
the Maxwell-point upper bound on when they stop being optimal.

Importing the package loads no submodule: each public name loads its module
on first access (PEP 562), so a caller pays only for the layers it uses."""

__version__ = "0.1.0"

_NAMES = {
    "elliptic": (
        "EllipticDivergenceError", "EllipticDomainError", "JacobiValues", "Modulus", "ellint_E",
        "ellint_E_inc", "ellint_F_inc", "ellint_K", "find_k0", "jacobi", "jacobi_add",
        "jacobi_derivs_k", "jacobi_recip_modulus",
    ),
    "expmap": (
        "ElasticaClass", "State", "classify", "elastic_energy_closed", "exp_map", "sample_elastica",
    ),
    "maxwell": (
        "MaxwellReport", "MaxwellStratum", "cut_time_bound", "f1", "f2", "find_kstar", "g1_n1",
        "g1_n2", "in_maxwell", "p1_roots", "p_g1", "u_a1", "u_h1", "unit_cut_time_bound",
    ),
    "oracle": (
        "BvpSolution", "IntegratorConfig", "UnattainableTargetError", "attainable", "bvp_shoot",
        "integrate_extremal",
    ),
    "phase": (
        "Covector", "EllipticCoords", "Stratum", "UnsupportedStratumError", "energy",
        "flow_vertical", "from_elliptic", "period", "stratify", "to_elliptic", "wrap_angle",
    ),
    "symmetry": (
        "MaxwellCoords", "P_of", "Q_of", "Reflection", "is_fixed_covector", "is_fixed_state",
        "m3_branch", "maxwell_coords", "reflect_covector", "reflect_state",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_MODULE_OF])


def __getattr__(name):
    import importlib

    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
