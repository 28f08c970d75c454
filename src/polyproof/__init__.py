"""Formulas as 2x2 polynomial matrices, with probabilistic proof checking."""

from .encmat import (
    EncMatrix,
    FieldRing,
    NotAProduct,
    SymbolicRing,
    elem,
    elem_inv_mul,
    factor_elementary_product,
    identity,
    product_of,
    zero_matrix,
)
from .ffield import (
    MERSENNE61,
    FieldElem,
    PointSampler,
    PrimeField,
    ZeroInverse,
    is_prime,
)
from .fingerprint import (
    Fingerprint,
    UnallocatedSymbol,
    VarAllocation,
    degree_bound,
    encode,
    encode_fingerprint,
    hom_mp,
    hom_subst,
)
from .logic import (
    AXIOM_SCHEMES,
    AxiomScheme,
    Formula,
    GoalMismatch,
    MPShapeMismatch,
    MissingBinding,
    NotAVariable,
    ParseError,
    ProofScript,
    Signature,
    UnknownSymbol,
    atom,
    imp,
    instantiate_axiom,
    neg,
    parse_formula,
    parse_proof,
    run_classical,
    subst_syntactic,
)
from .mpoly import MissingAssignment, MPoly, NotDivisible, VarId
from .protocol import (
    Assignment,
    StrictCheckError,
    Transcript,
    prove,
    verify,
    verify_symbolic,
)

__version__ = "0.1.0"
