"""Quantum data-syndrome codes.

Constructions, verification, bounds, and syndrome-measurement-error
simulation for stabilizer and subsystem codes whose syndromes are
protected by classical syndrome-measurement (SM) codes.

`import qdscodes` loads no submodule: each name in `__all__` is imported
from its submodule on first access (PEP 562), so `from qdscodes import X`
works as usual while a caller that needs only `bounds` never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "bounds": (
            "CodeParams", "conjectured_bound", "impure_bound", "pure_only_families",
            "qds_hamming", "qds_hamming_d3", "quantum_hamming", "region_table",
        ),
        "codes": (
            "AdditiveCode", "StabilizerCode", "SubsystemCode", "catalog", "catalog_names",
            "is_impure", "make_stabilizer", "make_subsystem", "min_distance",
            "read_code_file", "write_code_file",
        ),
        "gf4": (
            "BitVector", "F4Vector", "f2_rank", "pauli_string_parse", "pauli_string_render",
            "star_inner_product", "syndrome", "trace_inner_product",
        ),
        "noise": (
            "MeasurementScheme", "RepetitionPart", "SMPart", "SimResult", "build_scheme",
            "p_err", "pse_exact", "pse_monte_carlo", "repetition_scheme", "sm_scheme",
            "sweep", "sweep_csv", "write_sweep_csv",
        ),
        "qds": (
            "QDSCode", "QDSParams", "augment_parity", "build_qds", "equivalence_apply",
            "extended_syndrome", "identity_qds", "impure_zero_redundancy", "qds_min_distance",
            "qds_params",
        ),
        "smcodes": (
            "BinaryLinearCode", "DecodeOutcome", "coset_leader_decode", "majority_decode",
            "read_binary_code_file", "sm_catalog", "systematize", "weighted_ml_decode",
            "write_binary_code_file",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
