"""coxart: exact computations in Artin and Coxeter groups.

Garside normal forms in spherical Artin groups, the RAAG word problem and
ping-pong certificates, nerve subdivisions, the abelianization of pure
Artin groups, folding homomorphisms, and combinatorial curve systems, with
a verification CLI reproducing the concrete computations behind them.
"""

from .diagram import (
    CoxeterDiagram,
    DiagramError,
    FiniteTypeReport,
    finite_type,
    irreducible_components,
    parse_diagram,
    type_diagram,
)
from .garside import (
    ArtinEngine,
    BudgetExceeded,
    GarsideElement,
    delta_power,
    delta_word,
    parse_word,
)
from .homology import h1_image, independence_check, longest_hyperplane_audit
from .nerve import Nerve, SubdividedNerve, nerve, phi_word, subdivision
from .raag import (
    ChoiceMap,
    FlagComplex,
    RaagError,
    WordSystem,
    avoidance_check,
    generalized_pp_check,
    pp_search,
    raag_commutes,
    raag_equals,
    raag_normal_form,
    retraction,
    verify_injectivity_bounded,
)
from .wgroup import WGroup, build_group

__version__ = "0.1.0"

__all__ = [
    "ArtinEngine",
    "BudgetExceeded",
    "ChoiceMap",
    "CoxeterDiagram",
    "DiagramError",
    "FiniteTypeReport",
    "FlagComplex",
    "GarsideElement",
    "Nerve",
    "RaagError",
    "SubdividedNerve",
    "WGroup",
    "WordSystem",
    "avoidance_check",
    "build_group",
    "delta_power",
    "delta_word",
    "finite_type",
    "generalized_pp_check",
    "h1_image",
    "independence_check",
    "irreducible_components",
    "longest_hyperplane_audit",
    "nerve",
    "parse_diagram",
    "parse_word",
    "phi_word",
    "pp_search",
    "raag_commutes",
    "raag_equals",
    "raag_normal_form",
    "retraction",
    "subdivision",
    "type_diagram",
    "verify_injectivity_bounded",
]
