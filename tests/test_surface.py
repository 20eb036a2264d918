"""The public surface of alghyp, pinned: a new export is a deliberate diff.

Names that start with an underscore are left out, and so are the
submodules, which appear as package attributes once something imports them.
"""

from types import ModuleType

import alghyp
from alghyp import schemas
from alghyp.grassmann import ChowElement, Partition, RingContext


def public(names):
    return sorted(name for name in names if not name.startswith("_"))


def test_package_exports():
    names = (name for name, value in vars(alghyp).items() if not isinstance(value, ModuleType))
    assert public(names) == [
        "CaseBound",
        "ChowElement",
        "Classification",
        "FanoClassReport",
        "GenusBoundReport",
        "Partition",
        "RingContext",
        "SectionDominationResult",
        "VarietyDescriptor",
        "check_projective_space",
        "classify",
        "complement",
        "fano_class",
        "fano_lines_dimension",
        "flag",
        "grassmannian",
        "hyperbolicity_certificate",
        "hyperbolicity_threshold",
        "integrate",
        "known_counterexamples",
        "line_count",
        "lines_threshold",
        "make_class",
        "multiply",
        "orthogonal",
        "paired_rearrangement",
        "product",
        "projective_space",
        "symplectic",
        "top_chern_sym",
        "transpose_dual",
    ]


def test_schema_names():
    # the helpers that build the schemas stay private
    assert public(vars(schemas)) == [
        "CERTIFY_SCHEMA",
        "CHOW_ELEMENT_SCHEMA",
        "CLASSIFICATION_SCHEMA",
        "CLASSIFY_SCHEMA",
        "DESCRIPTOR_SCHEMA",
        "DUAL_SCHEMA",
        "FANO_REPORT_SCHEMA",
        "GENUS_REPORT_SCHEMA",
        "INTEGRATE_SCHEMA",
        "LINE_COUNT_SCHEMA",
        "SECTION_REPORT_SCHEMA",
        "SWEEP_SCHEMA",
        "THRESHOLD_SCHEMA",
    ]


def test_ring_members():
    ctx = RingContext(2, 4)
    assert public(dir(ctx)) == ["dim", "fits", "k", "n", "width"]
    assert public(dir(Partition())) == ["count", "index", "parts"]
    assert public(dir(ChowElement(ctx))) == [
        "coefficient",
        "context",
        "sorted_terms",
        "terms",
        "to_json_dict",
        "to_text",
    ]


def test_ring_operators():
    # the ring surface is +, integer scaling and multiply(); a Partition is
    # a tuple and defines no arithmetic of its own
    assert issubclass(Partition, tuple)
    arithmetic = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__getitem__")
    assert [name for name in arithmetic if name in vars(ChowElement)] == ["__add__", "__rmul__"]
    assert [name for name in arithmetic if name in vars(Partition)] == []
