"""Hall invariants, homology of finite-index subgroups, and low-index
subgroup counts of finitely presented groups, computed exactly.

The counting pipeline: Fox derivatives of the relators give the Alexander
matrix over the Laurent ring of H_1; evaluating it at torsion characters
and taking coranks over exact finite fields (F_{q^s} in characteristic
q, and split primes ell = 1 mod N standing in for Q(zeta_N) in
characteristic 0) stratifies the character variety; counting order-p
points per stratum gives the distribution of Betti numbers of index-p
normal covers, from which the metabelian Hall invariants and the
low-index censuses follow.  A separate
brute-force oracle (enumeration over multiplication tables, and Smith
normal form of permutation-matrix Jacobians) validates every formula.
"""

__version__ = "0.1.0"
