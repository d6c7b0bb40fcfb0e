"""Braids from area-preserving flows of the disc.

The package turns compactly supported radial Hamiltonian flows into pure
braids through the loop construction over n-point configurations, evaluates
braid quasi-morphisms (pairwise linking numbers and the closure-link
signature, computed from exact Seifert matrices) on them, and estimates the
induced quasi-morphisms on the diffeomorphism group by Monte Carlo
integration.  L^p isotopy lengths are available both in closed form for
radial flows and from sampled velocity fields, and a battery of experiment
checks verifies the structural inequalities connecting the two sides.
"""

__version__ = "0.1.0"

from .braids import (
    BraidWord,
    concat,
    free_reduce,
    is_pure,
    linking_number,
    make_word,
    power,
    representative_length,
    word_permutation,
)
from .errors import DegeneracyError, DegenerateConfigurationError, InputError
from .estimator import (
    QmEstimate,
    default_base,
    estimate_phi_n,
    estimate_phi_tilde_n,
)
from .flows import (
    FlowSpec,
    calabi,
    calabi_coefficient,
    lp_length_radial,
    lp_speed_moment_exact,
    make_flow,
    radial_flow_apply,
    signature_moment,
    signature_response,
)
from .lengths import holder_constant, lp_length_sampled
from .loops import (
    TrajectoryBundle,
    extract_braid,
    gg_loop,
    perturb_direction,
    signed_winding,
    winding_length,
)
from .profiles import RadialProfile, make_hs_profile, polynomial_bump, rotation_profile
from .quasimorphisms import (
    QuasimorphismSpec,
    homogenize,
    linking_quasimorphism,
    signature_quasimorphism,
)
from .seifert import SeifertMatrix, braid_signature, matrix_signature, seifert_matrix
