"""Tests for the exception hierarchy and package public surfaces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SUBPACKAGES = sorted(
    f"repro.{init.parent.name}" for init in PACKAGE_DIR.glob("*/__init__.py")
)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    @pytest.mark.parametrize(
        "child,parent",
        [
            (errors.CatalogError, errors.EngineError),
            (errors.SchemaError, errors.EngineError),
            (errors.StorageError, errors.EngineError),
            (errors.TransactionError, errors.EngineError),
            (errors.ConstraintError, errors.EngineError),
            (errors.TriggerError, errors.EngineError),
            (errors.UtilityError, errors.EngineError),
            (errors.LogError, errors.EngineError),
            (errors.RecoveryError, errors.EngineError),
            (errors.SqlSyntaxError, errors.SqlError),
            (errors.SqlAnalysisError, errors.SqlError),
            (errors.SnapshotError, errors.ExtractionError),
            (errors.SelfMaintenanceError, errors.OpDeltaError),
        ],
    )
    def test_layer_parentage(self, child, parent):
        assert issubclass(child, parent)

    def test_engine_errors_catchable_as_one_layer(self):
        from repro.engine import Database
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            Database("x").table("nope")


class TestPublicSurfaces:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.engine",
            "repro.sql",
            "repro.extraction",
            "repro.core",
            "repro.semantics",
            "repro.warehouse",
            "repro.transport",
            "repro.sources",
            "repro.workloads",
            "repro.sim",
            "repro.bench",
        ],
    )
    def test_all_exports_resolve(self, module):
        imported = __import__(module, fromlist=["__all__"])
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name}"

    @pytest.mark.parametrize(
        "module",
        SUBPACKAGES
        + ["repro.sql.parser", "repro.sql.expressions", "repro.sql.executor"],
    )
    def test_importable_first_in_a_clean_interpreter(self, module):
        # No package may depend on another having been imported before it:
        # the evaluator in ``repro.sql`` is imported by six packages, and
        # ``repro.sql`` used to initialise only after ``repro.engine``.
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_version(self):
        assert repro.__version__

    def test_experiment_registry_complete(self):
        from repro.bench.experiments import REGISTRY

        expected = {
            "table1", "table2", "table3", "table4", "fig2", "fig3",
            "maintenance_window", "remote_trigger", "online_maintenance",
            "snapshot_algorithms", "hybrid_capture", "timestamp_index",
            "freshness", "capture_levels", "aggregate_views", "sensitivity",
            "analysis", "semantics", "compaction", "certify", "flight",
            "verify_plans", "columnar",
        }
        assert set(REGISTRY) == expected
