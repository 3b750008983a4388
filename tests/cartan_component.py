"""The tensor-product side of the paper's Minkowski claim, shared by the
tests that check it: the diagonal lowering closure of the top tensor vector
has as many elements as the face at the summed weight."""

from fflv.rep import TensorSpace, _closure
from fflv.roots import DominantWeight
from fflv.weyl import RootSubset


def cartan_component_dimension(
    lam: DominantWeight, mu: DominantWeight, A: RootSubset, cap: int = 400
) -> int:
    """Dimension of the diagonal lowering closure of the top tensor vector.

    Inside the tensor product of the modules for the two weights, the
    vector (highest) x (highest) is closed under the diagonal action of the
    lowerings in A; the dimension of that span is returned.
    """
    n = len(lam.coeffs)
    if len(mu.coeffs) != n or A.n != n:
        raise ValueError("weights and subset must share one rank")
    left = TensorSpace.from_weight(lam)
    right = TensorSpace.from_weight(mu)
    # Over the concatenated factors the lexicographic basis index of a pair
    # is i1 * d2 + i2, and E_ab summed over all factors is the diagonal action.
    space = TensorSpace(n, left.factors + right.factors)
    ops = [(r.j + 1, r.i) for r in A.sorted_roots()]
    basis, _, _ = _closure(space, space.highest_vector(), ops, cap=cap,
                           what="diagonal closure")
    return len(basis)
