"""Published JSON schemas for every report the library and CLI emit.

Every report object is a closed record: each of its fields is required,
and no field outside the listed ones is allowed.  `_record` states that
rule once, and every object schema here is built through it.
"""


def _record(**fields) -> dict:
    """A closed JSON object whose fields, in this order, are all required."""
    return {
        "type": "object",
        "required": list(fields),
        "additionalProperties": False,
        "properties": fields,
    }


def _array(items) -> dict:
    return {"type": "array", "items": items}


def _at_least(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum}


_STRING = {"type": "string"}
_INT = {"type": "integer"}
_BOOL = {"type": "boolean"}
_INT_OR_NULL = {"type": ["integer", "null"]}
_COEFF = {"type": "string", "pattern": "^-?[0-9]+$"}
_FRACTION = {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}
_EPSILON = {"anyOf": [_FRACTION, {"type": "null"}]}
_CASE = {"type": "string", "enum": ["A", "B", "C"]}
_INT_ARRAY = _array(_INT)
_STRINGS = _array(_STRING)

CHOW_ELEMENT_SCHEMA = _record(
    k=_at_least(1),
    n=_at_least(2),
    terms=_array(_record(partition=_array(_at_least(0)), coeff=_COEFF)),
)

FANO_REPORT_SCHEMA = _record(
    d=_at_least(2),
    N=_at_least(4),
    expansion=CHOW_ELEMENT_SCHEMA,
    missing_class_ok=_BOOL,
    line_count=_INT_OR_NULL,
)

DESCRIPTOR_SCHEMA = _record(
    name=_STRING,
    m=_at_least(1),
    D=_at_least(1),
    a=_array({"type": "integer", "maximum": -2}),
    hyperbolicity_threshold=_INT_ARRAY,
    lines_threshold=_INT_ARRAY,
    line_space_dimensions=_INT_ARRAY,
    factors=_STRINGS,
    paper_discrepancies=_STRINGS,
)

CLASSIFICATION_SCHEMA = _record(
    kind={"type": "string", "enum": ["Hyperbolic", "ContainsLines", "OpenGap", "LowDimension"]},
    witness=_INT_OR_NULL,
    boundary=_INT_ARRAY,
)

CLASSIFY_SCHEMA = _record(
    variety=_STRING,
    degrees=_INT_ARRAY,
    classification=CLASSIFICATION_SCHEMA,
    epsilon=_EPSILON,
    counterexamples=_array(
        _record(variety=_STRING, condition=_STRING, note=_STRING, citation=_STRING)
    ),
    paper_discrepancies=_STRINGS,
)

GENUS_REPORT_SCHEMA = _record(
    variety=_STRING,
    degrees=_INT_ARRAY,
    epsilon=_EPSILON,
    binding_case=_CASE,
    cases=_array(_record(case=_CASE, j=_INT_OR_NULL, coefficients=_array(_FRACTION))),
    ledger_flags=_STRINGS,
)

THRESHOLD_SCHEMA = _record(
    variety=_STRING,
    hyperbolicity_threshold=_INT_ARRAY,
    lines_threshold=_INT_ARRAY,
    paper_discrepancies=_STRINGS,
)

CERTIFY_SCHEMA = _record(
    variety=_STRING,
    degrees=_INT_ARRAY,
    classification=CLASSIFICATION_SCHEMA,
    epsilon=_EPSILON,
    binding_case=_CASE,
)

SECTION_REPORT_SCHEMA = _record(
    entries=_array(
        _record(
            n=_at_least(1),
            d=_at_least(1),
            ok=_BOOL,
            rank=_at_least(0),
            target_dim=_at_least(0),
        )
    ),
    all_ok=_BOOL,
)

LINE_COUNT_SCHEMA = _record(n=_at_least(3), d=_at_least(3), N=_at_least(4), count=_INT)

SWEEP_SCHEMA = _record(
    variety=_STRING,
    rows=_array(_record(degree=_INT, classification=CLASSIFICATION_SCHEMA, epsilon=_EPSILON)),
)

INTEGRATE_SCHEMA = _record(k=_INT, n=_INT, value=_COEFF)

DUAL_SCHEMA = _record(
    k=_INT,
    n=_INT,
    partition=_INT_ARRAY,
    complement=_INT_ARRAY,
    dual_k=_INT,
    dual_partition=_INT_ARRAY,
)
