"""Tests for the numeric kernel analysis (repro.qa.numerics).

Covers the dtype lattice (promotion, weak scalars, flow propagation),
the fact extractor (array ops, scalar loops, dtype policies), the four
index rules (positive / negative / pragma fixtures each), the
``repro-qa numerics`` report (text determinism + JSON), and the
live-tree-clean integration contract.
"""

from __future__ import annotations

import json
import textwrap

from pathlib import Path

import pytest

from repro.qa import Analyzer
from repro.qa.cli import main as qa_main
from repro.qa.dtypeflow import (
    BOOL,
    FLOAT32,
    FLOAT64,
    INT64,
    UNKNOWN,
    WEAK_FLOAT,
    WEAK_INT,
    concrete,
    promote,
)
from repro.qa.numerics import (
    DEFAULT_DTYPE_POLICY,
    build_module_numerics,
    parse_dtype_tag,
)
from repro.qa.source import SourceModule
from repro.qa.symbols import build_module_symbols

REPO = Path(__file__).resolve().parent.parent

NUMERIC_RULES = ("dtype-promotion", "hot-loop-alloc", "implicit-copy", "scalar-loop")


def findings(source: str, rule: str, name: str = "repro.serve.mod"):
    out = Analyzer().run_source(textwrap.dedent(source), name=name)
    return [f for f in out if f.rule_id == rule]


def numerics_of(source: str, name: str = "repro.serve.mod"):
    module = SourceModule.from_source(textwrap.dedent(source), name=name)
    symbols = build_module_symbols(module)
    return symbols.numerics


def function_facts(source: str, fn_name: str, name: str = "repro.serve.mod"):
    num = numerics_of(source, name=name)
    assert num is not None
    for fn in num.functions:
        if fn.name == fn_name:
            return fn
    raise AssertionError(f"no numeric facts for {fn_name}")


# ----------------------------------------------------------------------
# dtype lattice
# ----------------------------------------------------------------------


class TestPromotion:
    def test_equal_dtypes_are_fixed_points(self):
        for d in (FLOAT64, FLOAT32, INT64, BOOL):
            assert promote(d, d) == d

    def test_float64_dominates_floats(self):
        assert promote(FLOAT64, FLOAT32) == FLOAT64
        assert promote(FLOAT32, FLOAT64) == FLOAT64

    def test_weak_float_does_not_promote_float32(self):
        # NEP 50: a Python float literal defers to the array dtype.
        assert promote(FLOAT32, WEAK_FLOAT) == FLOAT32
        assert promote(WEAK_FLOAT, FLOAT32) == FLOAT32

    def test_weak_float_forces_integers_to_float64(self):
        assert promote(INT64, WEAK_FLOAT) == FLOAT64

    def test_weak_int_defers_everywhere(self):
        assert promote(FLOAT32, WEAK_INT) == FLOAT32
        assert promote(INT64, WEAK_INT) == INT64

    def test_float32_with_int64_widens_to_float64(self):
        assert promote(FLOAT32, INT64) == FLOAT64

    def test_bool_defers_to_floats(self):
        assert promote(BOOL, FLOAT32) == FLOAT32

    def test_unknown_is_absorbing(self):
        assert promote(UNKNOWN, FLOAT64) is UNKNOWN
        assert promote(FLOAT32, UNKNOWN) is UNKNOWN

    def test_concrete_strengthens_weak_scalars(self):
        assert concrete(WEAK_FLOAT) == FLOAT64
        assert concrete(WEAK_INT) == INT64
        assert concrete(FLOAT32) == FLOAT32


class TestDtypeInference:
    def test_constructor_defaults_and_kwargs(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(n):
                """Make buffers.

                dtype: preserve
                """
                a = np.zeros(n)
                b = np.zeros(n, dtype=np.float32)
                return a
            ''',
            "f",
        )
        dtypes = {op.dtype for op in fn.array_ops}
        assert FLOAT64 in dtypes  # np.zeros defaults to float64
        assert FLOAT32 in dtypes  # explicit dtype kwarg wins

    def test_astype_and_out_and_promotion_flow(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                y = x.astype(np.float32)
                z = y + 1.0
                w = np.multiply(z, z, out=z)
                return w
            ''',
            "f",
        )
        kinds = {(op.kind, op.op) for op in fn.array_ops}
        assert ("copy", ".astype") in kinds  # astype copies
        assert ("inplace", "np.multiply") in kinds  # out= is in-place
        # ``y + 1.0`` stays float32 (weak scalar) — no promote fact.
        assert not any(op.kind == "promote" for op in fn.array_ops)

    def test_return_dtype_joins_returns(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(x, flag):
                """Kernel.

                dtype: preserve
                """
                if flag:
                    return np.zeros(3, dtype=np.int64)
                return np.arange(3)
            ''',
            "f",
        )
        assert fn.return_dtype == INT64

    def test_division_of_integers_is_float(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                n = np.zeros(3, dtype=np.int64)
                return n / 2
            ''',
            "f",
        )
        assert fn.return_dtype == FLOAT64


# ----------------------------------------------------------------------
# fact extraction
# ----------------------------------------------------------------------


class TestExtraction:
    def test_docstring_tag_beats_module_policy(self):
        assert parse_dtype_tag("Text.\n\ndtype: float32\n") == "float32"
        assert parse_dtype_tag("no tag here") is None
        fn = function_facts(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                return np.zeros(3)
            ''',
            "f",
            name="repro.core.knn",
        )
        assert fn.declared == "float32"  # tag wins over the module map

    def test_module_policy_applies_to_kernel_modules(self):
        fn = function_facts(
            """
            import numpy as np

            def f(x):
                return np.zeros(3)
            """,
            "f",
            name="repro.core.knn",
        )
        assert DEFAULT_DTYPE_POLICY["repro.core.knn"] == "preserve"
        assert fn.declared == "preserve"

    def test_non_policy_module_has_no_declaration(self):
        fn = function_facts(
            """
            import numpy as np

            def f(x):
                return np.zeros(3)
            """,
            "f",
            name="repro.metrics.mod",
        )
        assert fn.declared is None

    def test_trivial_module_stores_no_facts(self):
        assert numerics_of("x = 1\n") is None

    def test_facts_round_trip_through_json(self):
        num = numerics_of(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                acc = np.zeros(4)
                for i in range(x.size):
                    acc += np.ones(4)
                return acc
            '''
        )
        from repro.qa.numerics import ModuleNumerics

        restored = ModuleNumerics.from_dict(json.loads(json.dumps(num.to_dict())))
        assert restored.to_dict() == num.to_dict()

    def test_chunked_range_loop_is_not_scalar(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                for start in range(0, x.shape[0], 64):
                    block = x[start : start + 64]
                return x
            ''',
            "f",
        )
        assert fn.scalar_loops == []

    def test_plain_int_range_loop_is_not_scalar(self):
        fn = function_facts(
            '''
            import numpy as np

            def f(x, n_classes):
                """Kernel.

                dtype: float64
                """
                for c in range(n_classes):
                    pass
                return x
            ''',
            "f",
        )
        assert fn.scalar_loops == []


# ----------------------------------------------------------------------
# the four rules: positive / negative / pragma
# ----------------------------------------------------------------------


class TestDtypePromotionRule:
    def test_fires_on_float64_default_in_float32_kernel(self):
        got = findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                return np.zeros(3)
            ''',
            "dtype-promotion",
        )
        assert len(got) == 1
        assert "float64" in got[0].message

    def test_fires_on_scalar_upcast(self):
        got = findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                return x * np.float64(2.0)
            ''',
            "dtype-promotion",
        )
        assert got, "explicit float64 scalar must promote a float32 kernel"

    def test_fires_one_call_level_down(self):
        out = Analyzer().run_sources(
            {
                "repro.serve.helper": textwrap.dedent(
                    '''
                    import numpy as np

                    def make_table(n):
                        """Build the table.

                        dtype: float64
                        """
                        return np.zeros(n)
                    '''
                ),
                "repro.serve.kern": textwrap.dedent(
                    '''
                    from repro.serve.helper import make_table

                    def g(n):
                        """Kernel.

                        dtype: float32
                        """
                        return make_table(n)
                    '''
                ),
            }
        )
        got = [f for f in out if f.rule_id == "dtype-promotion"]
        assert any("make_table" in f.message for f in got)

    def test_quiet_on_explicit_float32(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                y = np.zeros(3, dtype=np.float32)
                return y + 1.0
            ''',
            "dtype-promotion",
        )

    def test_quiet_in_float64_kernels(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                return np.zeros(3)
            ''',
            "dtype-promotion",
        )

    def test_pragma_suppresses(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float32
                """
                return np.zeros(3)  # qa: ignore[dtype-promotion]
            ''',
            "dtype-promotion",
        )


class TestHotLoopAllocRule:
    SRC = '''
        import numpy as np

        def f(x):
            """Kernel.

            dtype: float64
            """
            acc = np.zeros(4)
            for i in range(x.size):
                t = np.empty(4){pragma}
                acc += t
            return acc
    '''

    def test_fires_on_alloc_in_scalar_loop(self):
        got = findings(self.SRC.format(pragma=""), "hot-loop-alloc")
        assert len(got) == 1
        assert "out=" in got[0].message or "preallocate" in got[0].message

    def test_quiet_when_hoisted(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                acc = np.zeros(4)
                t = np.empty(4)
                for i in range(x.size):
                    np.multiply(acc, acc, out=t)
                return acc
            ''',
            "hot-loop-alloc",
        )

    def test_quiet_in_chunked_loops(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                out = []
                for start in range(0, x.shape[0], 64):
                    out.append(np.zeros(4))
                return out
            ''',
            "hot-loop-alloc",
        )

    def test_pragma_suppresses(self):
        assert not findings(
            self.SRC.format(pragma="  # qa: ignore[hot-loop-alloc]"),
            "hot-loop-alloc",
        )


class TestImplicitCopyRule:
    def test_fires_on_vstack_feeding_gemm(self):
        got = findings(
            '''
            import numpy as np

            def f(blocks, w):
                """Kernel.

                dtype: float64
                """
                return np.vstack(blocks) @ w
            ''',
            "implicit-copy",
        )
        assert len(got) == 1
        assert "np.vstack" in got[0].message

    def test_fires_on_copy_feeding_reduction(self):
        got = findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                y = np.zeros(3)
                return np.sum(y.copy())
            ''',
            "implicit-copy",
        )
        assert len(got) == 1

    def test_quiet_on_views_feeding_gemm(self):
        # .T is a view — BLAS handles transposed operands natively.
        assert not findings(
            '''
            import numpy as np

            def f(a, b):
                """Kernel.

                dtype: float64
                """
                return a @ b.T
            ''',
            "implicit-copy",
        )

    def test_quiet_on_staged_copy(self):
        assert not findings(
            '''
            import numpy as np

            def f(blocks, w):
                """Kernel.

                dtype: float64
                """
                stacked = np.vstack(blocks)
                return stacked @ w
            ''',
            "implicit-copy",
        )

    def test_pragma_suppresses(self):
        assert not findings(
            '''
            import numpy as np

            def f(blocks, w):
                """Kernel.

                dtype: float64
                """
                return np.vstack(blocks) @ w  # qa: ignore[implicit-copy]
            ''',
            "implicit-copy",
        )


class TestScalarLoopRule:
    def test_fires_on_per_element_range_loop(self):
        got = findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                s = 0.0
                for i in range(len(x)):
                    s += float(x[i])
                return s
            ''',
            "scalar-loop",
        )
        assert len(got) == 1
        assert "range(len(x))" in got[0].message

    def test_quiet_outside_policy_scope(self):
        assert not findings(
            """
            import numpy as np

            def f(x):
                s = 0.0
                for i in range(len(x)):
                    s += float(x[i])
                return s
            """,
            "scalar-loop",
            name="repro.metrics.mod",
        )

    def test_quiet_on_vectorized_equivalent(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                return np.sum(x)
            ''',
            "scalar-loop",
        )

    def test_pragma_suppresses(self):
        assert not findings(
            '''
            import numpy as np

            def f(x):
                """Kernel.

                dtype: float64
                """
                s = 0.0
                for i in range(len(x)):  # qa: ignore[scalar-loop]
                    s += float(x[i])
                return s
            ''',
            "scalar-loop",
        )


# ----------------------------------------------------------------------
# the CLI report
# ----------------------------------------------------------------------


class TestNumericsReport:
    def test_text_table_is_deterministic(self, capsys):
        target = str(REPO / "src" / "repro" / "core")
        assert qa_main(["numerics", target, "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert qa_main(["numerics", target, "--no-cache"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "repro.core.knn.pairwise_sq_distances" in first
        assert first.endswith("\n")

    def test_json_report_covers_core_and_serve(self, capsys):
        assert (
            qa_main(
                [
                    "numerics",
                    str(REPO / "src" / "repro" / "core"),
                    str(REPO / "src" / "repro" / "serve" / "batch.py"),
                    "--no-cache",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        kernels = {k["module"] + "." + k["function"] for k in payload["kernels"]}
        assert "repro.core.knn.pairwise_sq_distances" in kernels
        assert "repro.core.pipeline.ApplicationClassifier.classify_stacked" in kernels
        stacked = next(
            k
            for k in payload["kernels"]
            if k["function"] == "ApplicationClassifier.classify_stacked"
        )
        assert stacked["declared"] == "preserve"
        # The stacked kernel writes through preallocated buffers.
        assert any(op["kind"] == "inplace" for op in stacked["ops"])

    def test_missing_path_is_usage_error(self, capsys):
        assert qa_main(["numerics", "no/such/path", "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# live tree integration
# ----------------------------------------------------------------------


def test_live_tree_has_no_numeric_findings(live_qa):
    """The kernels in core/ and serve/ must satisfy their own lint.

    A numeric finding fails this check even if the baseline lists it.
    """
    report = live_qa.report
    numeric = [
        f for f in [*report.findings, *report.grandfathered] if f.rule_id in NUMERIC_RULES
    ]
    assert numeric == [], [f.render() for f in numeric]
