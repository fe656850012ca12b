"""Exact character theory of SL2(q) for odd primes q.

Conjugacy classes, complex and real irreducible character tables,
Frobenius-Schur indicators and fixed-point dimensions of cyclic
subgroups, all in exact cyclotomic arithmetic, with every closed form
backed by a brute-force verification suite (``verify_all``).
"""
from .cyclo import CycNum, nu, rational, root_of_unity, sqrt_eps_q, working_conductor
from .fq import (
    inverse, is_odd_prime, is_quadratic_residue, legendre_symbol,
    primitive_root,
)
from .grp import (
    A, B, C, D, ONE, Z, ZC, ZD, ClassLabel, ConjClass, GroupElem,
    class_labels, class_of, conjugacy_partition, element_order,
    enumerate_group, find_b, representatives, DEFAULT_MAX_ENUM,
)
from .chars import (
    CharLabel, CharTable, Chi, Theta, char_labels, complex_table, sym_latex,
    sym_str,
)
from .realrep import (
    RealCharLabel, RealCharTable, fs_indicator_brute, fs_indicator_closed,
    fs_indicator_raw, inverse_class_map, real_classes, real_table,
    square_class_map,
)
from .fixdim import (
    FixedDimTable, SubgroupDesc, SubgroupKey, fixed_dim_average,
    fixed_dim_closed, full_report, subgroup,
)
from .verify import VerificationReport, verify_all

__version__ = "0.1.0"

__all__ = [
    "CycNum", "nu", "rational", "root_of_unity", "sqrt_eps_q",
    "working_conductor",
    "inverse", "is_odd_prime", "is_quadratic_residue", "legendre_symbol",
    "primitive_root",
    "A", "B", "C", "D", "ONE", "Z", "ZC", "ZD",
    "ClassLabel", "ConjClass", "GroupElem",
    "class_labels", "class_of", "conjugacy_partition", "element_order",
    "enumerate_group", "find_b", "representatives", "DEFAULT_MAX_ENUM",
    "CharLabel", "CharTable", "Chi", "Theta", "char_labels", "complex_table",
    "sym_latex", "sym_str",
    "RealCharLabel", "RealCharTable", "fs_indicator_brute",
    "fs_indicator_closed", "fs_indicator_raw", "inverse_class_map",
    "real_classes", "real_table", "square_class_map",
    "FixedDimTable", "SubgroupDesc", "SubgroupKey", "fixed_dim_average",
    "fixed_dim_closed", "full_report", "subgroup",
    "VerificationReport", "verify_all",
    "__version__",
]
