"""Chart-level tensor calculus for adapted (Walker) metrics, extension
metrics on cotangent-type bundles, and projectability verification."""

from .chart import ChartSplit
from .distributions import (
    CheckResult,
    DistributionSpec,
    check_null,
    check_parallel,
    check_projectable,
    check_walker_form,
    curvature_condition,
    projectability_parts,
    restrict_connection,
    walker_projectability,
)
from .expr import (
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    ScalarField,
    VariableRangeError,
    coordinate,
    parse_expression,
)
from .extensions import (
    ExtensionSpec,
    OneFormSection,
    build_pullback_extension,
    build_riemann_extension,
    fiber_translate_pullback,
    killing_operator,
    transformation_rule_residual,
)
from .sampling import sample_points
from .tensor import (
    ConnectionField,
    LeviCivitaConnection,
    MetricField,
    SingularMetricError,
    SymbolicConnection,
    christoffel,
    curvature_components,
)
from .transport import (
    CurveSpec,
    TransportResult,
    euler_transport,
    parallel_transport,
    projection_commutes_residual,
)

__version__ = "0.1.0"
