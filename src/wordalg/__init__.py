"""wordalg: monomial algebras built from infinite words.

Certify graded nilpotence of weighted morphic words, detect free subalgebras
in interleaved-word quotients, and profile the Thue-Morse operator algebra,
all with exact arithmetic.
"""

from .words import (
    Alphabet,
    FactorIndex,
    Morphism,
    MorphicStream,
    PeriodicStream,
    PrefixStream,
    analyze_morphism,
    incidence_matrix,
    is_cube_free,
    make_morphism,
    parikh,
    word_weight,
)
from .grading import (
    Certificate,
    certify_graded_nilpotence,
    graded_nilpotence_scan,
    longest_ap,
    weight_sum_prefix,
)
from .monalg import (
    CubeIdealView,
    FreeView,
    NcPolynomial,
    WordFactorView,
    freeness_check,
    linear_independence,
)
from .interleave import (
    InterleaveSpec,
    InterleaveStream,
    UniversalSequence,
    construction_pipeline,
    locate_pattern,
)
from .rowen import (
    BandMatrix,
    ThueMorseSequence,
    build_generators,
    evaluate_word,
    growth_profile,
    nilpotency_index,
    thue_morse_bit,
)

__version__ = "0.1.0"
