"""Diagnose-mode compiles: lowering facts without runtime kernels."""

import pytest

from repro.san import (
    BatchedJumpEngine,
    SteppedJumpEngine,
    tensor_compatible,
)
from repro.stochastic import StreamFactory
from tests.conftest import make_two_state_model
from tests.san.test_compiled_equivalence import make_branchy_model


@pytest.fixture(params=[BatchedJumpEngine, SteppedJumpEngine])
def diagnose_engine(request):
    model, *_ = make_two_state_model()
    return request.param(model, diagnose=True)


class TestDiagnoseMode:
    def test_lowering_facts_are_populated(self, diagnose_engine):
        stats = diagnose_engine.lowering_stats()
        assert stats["timed_activities"] == 2
        assert stats["lowered"] == 2
        assert stats["fallback"] == 0
        assert diagnose_engine.fallback_reasons == {}

    def test_no_runtime_delegate(self, diagnose_engine):
        assert diagnose_engine._delegate_engine is None
        assert diagnose_engine._choosers == []
        assert diagnose_engine._firers == []
        assert diagnose_engine.fired_events == 0

    def test_run_refuses(self, diagnose_engine):
        stream = StreamFactory(7).stream("x")
        with pytest.raises(RuntimeError, match="diagnose=True"):
            diagnose_engine.run(stream, 1.0)

    @pytest.mark.parametrize(
        "diagnose_engine", [SteppedJumpEngine], indirect=True
    )
    def test_run_batch_refuses(self, diagnose_engine):
        stream = StreamFactory(7).stream("x")
        with pytest.raises(RuntimeError, match="diagnose=True"):
            diagnose_engine.run_batch([stream], 1.0)

    def test_simulate_refuses(self):
        model, *_ = make_two_state_model()
        engine = BatchedJumpEngine(model, diagnose=True)
        with pytest.raises(RuntimeError, match="diagnose=True"):
            engine.simulate()

    def test_stepped_defers_table_allocation(self):
        model, *_ = make_branchy_model()

        def parts(engine):
            # refresh-table parts, then the instantaneous gate tables
            return [
                part for table in engine._tables
                for part in (table.gate, table.rate)
            ] + list(engine._insta_tables)

        diagnose = SteppedJumpEngine(model, diagnose=True)
        runtime = SteppedJumpEngine(model)
        assert diagnose._insta_tables
        for part in parts(diagnose):
            assert part is None or part.memo.table is None
        # the spec side (spans, bounds) must match the runtime compile
        for dp, rp in zip(parts(diagnose), parts(runtime)):
            if dp is None:
                assert rp is None
                continue
            assert dp.memo.span == rp.memo.span
            assert dp.memo.bounds == rp.memo.bounds
            assert dp.memo.shared_slots == rp.memo.shared_slots

    def test_tensor_compatible_rejects_diagnose_engines(self):
        model, *_ = make_two_state_model()
        engine = SteppedJumpEngine(model, diagnose=True)
        reason = tensor_compatible(engine)
        assert reason is not None and "diagnose" in reason

    def test_runtime_engine_still_compatible(self):
        model, *_ = make_two_state_model()
        assert tensor_compatible(SteppedJumpEngine(model)) is None

    def test_default_engines_unchanged(self):
        model, *_ = make_two_state_model()
        engine = BatchedJumpEngine(model)
        assert engine.diagnose is False
        # the per-row delegate is built on first use, not at construction
        assert engine._delegate_engine is None
        stream = StreamFactory(11).stream("y")
        run = engine.run(stream, 0.5)
        assert run is not None
        assert engine._delegate_engine is not None
