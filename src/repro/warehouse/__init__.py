"""Warehouse side: mirrors, SPJ views, integrators, availability scheduler."""

from .aggregates import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
)
from .olap import OlapQuery, measure_mix_cost, measure_query_cost, standard_queries
from .opdelta_integrator import OpDeltaIntegrator
from .scheduler import (
    AvailabilityReport,
    QueryRecord,
    ScheduleReport,
    run_availability_experiment,
    run_conflict_schedule,
)
from .value_integrator import IntegrationReport, ValueDeltaIntegrator
from .views import MaterializedView
from .warehouse import Warehouse

__all__ = [
    "Warehouse",
    "MaterializedView",
    "AggregateSpec",
    "AggregateViewDefinition",
    "MaterializedAggregateView",
    "ValueDeltaIntegrator",
    "OpDeltaIntegrator",
    "IntegrationReport",
    "OlapQuery",
    "standard_queries",
    "measure_query_cost",
    "measure_mix_cost",
    "AvailabilityReport",
    "QueryRecord",
    "run_availability_experiment",
    "ScheduleReport",
    "run_conflict_schedule",
]
