"""wreathfock: exact computational algebra on the wreath-product Fock
space F_G = sum of class-function spaces C(G_n), with verified Hopf
structure, lambda-operations, Heisenberg operators, and orbifold Euler
series."""

from .fock import (FockElement, antipode, counit, fock_comul, fock_exp,
                   fock_mul, graded_dim, hopf_verify, sigma_r_c, sigma_rho,
                   sign_char, trivial_char)
from .groups import (ClassFunction, DualFunctional, FiniteGroup, GroupError,
                     SubgroupEmbedding, adams_psi, all_subgroup_element_sets,
                     binary_dihedral, binary_octahedral, builtin, cyclic,
                     dihedral, group_from_cayley_json,
                     group_from_permutations, group_from_permutations_json,
                     induce_cf, mackey_check, mackey_verify, restrict_cf,
                     sigma_basis, sl2_f3, sl2_f5, subgroup_from_elements,
                     symmetric, trivial_character, trivial_group)
from .gsets import (GSet, GSetError, PowerGSet, coset_gset, euler_series_check,
                    euler_verify, gset_from_json, gset_power, inertia_basis,
                    inertia_dim, ktheory_euler_check, macdonald_check,
                    mckay_table, orbifold_euler, point_gset,
                    power_orbifold_euler, regular_gset,
                    theorem_main_dim_check)
from .heisenberg import (HeisenbergOp, SuperFockSpace, a_minus, a_plus,
                         commutator_check, heisenberg_verify,
                         irreducibility_check, sf_commutator_check, vacuum)
from .lambda_ops import (E_series, H_series, additivity_check, boxtimes_power,
                         ch_n, free_lambda_basis_check, h_e_identities,
                         h_virtual, lambda_n, lambda_verify, omega_n, phi_n,
                         psi_classical, psi_composite)
from .report import CheckResult, Report
from .scalars import (Cyclotomic, ScalarError, euler_product,
                      graded_dim_series)
from .wreath import (WreathError, WreathType, brute_force_classes,
                     enumerate_types, type_of, wreath_order, z_rho)

__version__ = "0.1.0"
