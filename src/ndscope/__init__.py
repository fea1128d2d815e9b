"""Exact structure-identifiability toolkit for networked descriptor systems.

Subpackages:

* ``polymat``        exact polynomial/rational linear algebra (Smith and
                     Smith-McMillan forms, coprime MFDs, proper splits);
* ``model``          subsystem/NDS data model, transfer matrices,
                     regularity and well-posedness oracles;
* ``identifiability`` the rank tests, undifferentiable regions and the
                     constrained variants;
* ``reconstruction`` lumping and exact SCM recovery;
* ``sim``            PRBS simulation, distances, margins, tau sweeps: the
                     only user of numpy and scipy, loaded on first use;
* ``cli``            the ``ndscope`` command-line tool.
"""

from .identifiability import (
    CaseTag, IdentPencil, IdentReport, StackedCoeffMatrix, UndiffRegion,
    build_xy_pencil, build_xy_pencil_hat, check_identifiable_at,
    check_identifiable_augmented, check_identifiable_known_entries,
    check_identifiable_parameterized, classify_case, stacked_u2,
    undiff_region, verify_region_by_tfm,
)
from .model import (
    AffineConstraint, KnownEntries, NdsDefinition, SCMatrix,
    SubsystemRealization, SubsystemTfms, assemble_block_tfms,
    check_nds_regular, check_subsystem_regular, check_well_posed, nds_tfm,
    parse_model, subsystem_tfms, tfm_equal, transpose_nds,
)
from .polymat import (
    Poly, PolyMat, ProperSplit, RatFun, RatFunMat, RightMfd, SmithForm,
    SmithMcMillanForm, is_coprime_right, normal_rank, poly_gcd, proper_split,
    right_coprime_mfd, smith_form, smith_mcmillan, unimodular_inverse,
)
from .reconstruction import (
    ConsistencyReport, LumpedModel, ReconReport, check_consistency,
    check_reconstructible, lump, lump_descriptor, lumped_tfm, recover_scm,
)

__version__ = "0.1.0"

# ``sim``'s re-exports, resolved on first use by ``__getattr__`` (PEP 562)
_SIM_NAMES = frozenset((
    "FloatRealization", "SimConfig", "StabilityMargins", "Trajectory",
    "choose_sampling", "distance_freq", "distance_scm", "distance_time", "eig",
    "expm", "freq_response", "prbs", "relative_error", "screen", "sigma_max",
    "simulate", "stability_margins", "stm", "svd", "tau_sweep"))


def __getattr__(name):
    if name in _SIM_NAMES:
        from . import sim
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIM_NAMES)
