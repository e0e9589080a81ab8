"""Tests for the static lowering verifier (LW) and tensor predictor (TZ).

Each seeded-fault model below makes exactly the targeted rule fire, so
the whole LW/TZ catalog is exercised at least once; the built-in AHS
models stay clean (that bar lives in test_runner_and_cli.py).
"""

import pytest

from repro.analysis import (
    RULES,
    Severity,
    analyze_model,
    check_tensor,
    extract_kernel_ir,
)
from repro.san import (
    Case,
    InputGate,
    MarkingFunction,
    Place,
    SANModel,
    TimedActivity,
    input_arc,
    output_arc,
)
from repro.stochastic.distributions import Deterministic
from tests.conftest import make_two_state_model
from tests.san.test_case_memo import make_wide_alarm_model


def rules_of(report) -> set:
    return {d.rule_id for d in report.diagnostics}


def lint(model, families=("lowering",), max_states=256):
    return analyze_model(model, families=list(families), max_states=max_states)


# ----------------------------------------------------------------------
# seeded-fault models
# ----------------------------------------------------------------------
def model_nan_rate() -> SANModel:
    """LW001: 0/0 at the (reachable) initial marking."""
    q = Place("q", 0)
    drain = Place("drain", 0)
    model = SANModel("nan-rate")
    model.add_activity(
        TimedActivity(
            "leak",
            rate=MarkingFunction({"q": q}, lambda g: g["q"] / g["q"]),
            cases=[Case(1.0, [output_arc(drain)])],
        )
    )
    return model


def model_negative_rate() -> SANModel:
    """LW002: rate 2 - p goes negative once p reaches 3."""
    p = Place("p", 0)
    model = SANModel("negative-rate")
    model.add_activity(
        TimedActivity("grow", rate=1.0, cases=[Case(1.0, [output_arc(p)])])
    )
    model.add_activity(
        TimedActivity(
            "bad",
            rate=MarkingFunction({"p": p}, lambda g: 2.0 - g["p"]),
            cases=[Case(1.0)],
        )
    )
    return model


def model_wide_span() -> SANModel:
    """LW003: a rate over three 200-token places spans 202**3 keys."""
    a, b, c = Place("a", 200), Place("b", 200), Place("c", 200)
    model = SANModel("wide-span")
    model.add_activity(
        TimedActivity(
            "sum",
            rate=MarkingFunction(
                {"a": a, "b": b, "c": c},
                lambda g: g["a"] + g["b"] + g["c"] + 1.0,
            ),
            cases=[Case(1.0)],
        )
    )
    return model


def model_denormalized_cases() -> SANModel:
    """LW004: probabilities sum to 1 only at the initial marking."""
    t = Place("t", 0)
    model = SANModel("off-simplex")
    model.add_activity(
        TimedActivity("tick", rate=1.0, cases=[Case(1.0, [output_arc(t)])])
    )
    model.add_activity(
        TimedActivity(
            "split",
            rate=1.0,
            cases=[
                Case(MarkingFunction({"t": t}, lambda g: 0.5 + 0.25 * g["t"])),
                Case(0.5),
            ],
        )
    )
    return model


def model_footprint_divergence() -> SANModel:
    """LW005: two lambdas on one line — AST resolves to the first."""
    a, b = Place("a", 0), Place("b", 1)
    preds = [lambda g: g["a"] >= 1, lambda g: g["b"] >= 1]  # one line: both
    model = SANModel("ast-mismatch")
    model.add_activity(
        TimedActivity(
            "go",
            rate=1.0,
            input_gates=[InputGate("ig", {"a": a, "b": b}, preds[1])],
            cases=[Case(1.0)],
        )
    )
    return model


def model_integer_rate() -> SANModel:
    """LW006: the rate tree stays in int64 until the table cast."""
    p = Place("p", 1)
    model = SANModel("int-rate")
    model.add_activity(
        TimedActivity(
            "count",
            rate=MarkingFunction({"p": p}, lambda g: g["p"]),
            cases=[Case(1.0)],
        )
    )
    return model


def model_resisting_gate() -> SANModel:
    """TZ002: float() escapes the numeric domain — lowering aborts."""
    p = Place("p", 1)
    model = SANModel("fallback-gate")
    model.add_activity(
        TimedActivity(
            "both",
            rate=1.0,
            input_gates=[
                InputGate("coerce", {"p": p}, lambda g: float(g["p"]) > 0.0)
            ],
            cases=[Case(1.0)],
        )
    )
    return model


def model_non_markovian() -> SANModel:
    """TZ001: a deterministic firing delay rules the stepped engine out."""
    p = Place("p", 1)
    model = SANModel("non-markovian")
    model.add_activity(
        TimedActivity(
            "fixed",
            distribution=Deterministic(1.0),
            input_gates=[input_arc(p)],
            cases=[Case(1.0)],
        )
    )
    return model


def model_untimed() -> SANModel:
    model = SANModel("untimed")
    model.add_place(Place("lonely", 0))
    return model


# ----------------------------------------------------------------------
# LW rules
# ----------------------------------------------------------------------
class TestLoweringRules:
    def test_lw001_nan_sentinel_collision(self):
        report = lint(model_nan_rate())
        assert "LW001" in rules_of(report)

    def test_lw002_negative_reachable_rate(self):
        report = lint(model_negative_rate())
        diags = [d for d in report.diagnostics if d.rule_id == "LW002"]
        assert diags and diags[0].severity is Severity.ERROR
        assert diags[0].activity == "bad"

    def test_lw003_span_over_cap(self):
        report = lint(model_wide_span())
        diags = [d for d in report.diagnostics if d.rule_id == "LW003"]
        assert diags and "rate refresh table" in diags[0].message

    def test_lw004_off_simplex_probabilities(self):
        report = lint(model_denormalized_cases())
        diags = [d for d in report.diagnostics if d.rule_id == "LW004"]
        assert diags and diags[0].activity == "split"

    def test_lw005_read_divergence(self):
        report = lint(model_footprint_divergence())
        diags = [d for d in report.diagnostics if d.rule_id == "LW005"]
        assert diags and diags[0].severity is Severity.ERROR
        assert "diverges" in diags[0].message

    def test_lw006_integer_rate_tree(self):
        report = lint(model_integer_rate())
        diags = [d for d in report.diagnostics if d.rule_id == "LW006"]
        assert diags and "integer dtype" in diags[0].message

    def test_lw007_incomplete_exploration(self):
        model, *_ = make_two_state_model()
        report = lint(model, max_states=1)
        diags = [d for d in report.diagnostics if d.rule_id == "LW007"]
        assert diags and "bounded exploration" in diags[0].message

    def test_lw007_skip_note_without_timed_activities(self):
        report = lint(model_untimed())
        diags = [d for d in report.diagnostics if d.rule_id == "LW007"]
        assert diags and "not applicable" in diags[0].message

    def test_clean_model_yields_no_lowering_findings(self):
        model, *_ = make_two_state_model()
        report = lint(model)
        assert rules_of(report) == set()


# ----------------------------------------------------------------------
# TZ rules
# ----------------------------------------------------------------------
class TestTensorRules:
    def test_tz001_non_markovian(self):
        report = lint(model_non_markovian(), families=("tensor",))
        diags = [d for d in report.diagnostics if d.rule_id == "TZ001"]
        assert diags and "fixed" in diags[0].message

    def test_tz002_per_row_fallback(self):
        report = lint(model_resisting_gate(), families=("tensor",))
        diags = [d for d in report.diagnostics if d.rule_id == "TZ002"]
        assert diags and "per-row" in diags[0].message

    def test_untabulated_instantaneous_gates_fire_lw003_and_tz002(self):
        # an instantaneous gate over 21 shared counters: the gate table
        # would need 2^21+ entries, so the instantaneous check runs the
        # gate trees on every triggered row
        model, *_ = make_wide_alarm_model(21)
        report = lint(model, families=("lowering", "tensor"))
        lw003 = [d for d in report.diagnostics if d.rule_id == "LW003"]
        assert lw003 and "instantaneous gate table" in lw003[0].message
        assert lw003[0].activity == "alarm"
        tz002 = [d for d in report.diagnostics if d.rule_id == "TZ002"]
        assert any(
            "instantaneous gates not tabulated" in d.message for d in tz002
        )

    def test_tabulated_instantaneous_gates_are_clean(self):
        model, *_ = make_wide_alarm_model(4)
        report = lint(model, families=("lowering", "tensor"))
        assert not {"LW003", "TZ002"} & rules_of(report)

    def test_tz003_no_timed_activities(self):
        diags = list(check_tensor(model_untimed()))
        assert [d.rule_id for d in diags] == ["TZ003"]

    def test_clean_model_yields_no_tensor_findings(self):
        model, *_ = make_two_state_model()
        report = lint(model, families=("tensor",))
        assert rules_of(report) == set()


class TestRuleCatalogCoverage:
    def test_every_new_rule_fires_somewhere(self):
        fired = set()
        for model in (
            model_nan_rate(),
            model_negative_rate(),
            model_wide_span(),
            model_denormalized_cases(),
            model_footprint_divergence(),
            model_integer_rate(),
            model_non_markovian(),
            model_resisting_gate(),
            model_untimed(),
        ):
            report = lint(model, families=("lowering", "tensor"))
            fired |= rules_of(report)
        model, *_ = make_two_state_model()
        fired |= rules_of(lint(model, max_states=1))
        new_rules = {r for r in RULES if r[:2] in {"LW", "TZ"}}
        assert new_rules <= fired


# ----------------------------------------------------------------------
# kernel-IR extraction
# ----------------------------------------------------------------------
class TestKernelIR:
    def test_structure_and_schema(self):
        model, *_ = make_two_state_model()
        ir = extract_kernel_ir(model)
        data = ir.to_dict()
        assert data["schema"] == "repro-kernel-ir/1"
        assert data["model"] == "two-state"
        assert data["stats"]["timed_activities"] == 2
        assert len(data["fire"]) == 2
        for entry in data["fire"]:
            assert entry["probs"] == [1.0]
        names = {name for group in data["groups"] for name in group["reads"]}
        assert names == {"up", "down"}

    def test_digest_is_stable_per_model(self):
        model, *_ = make_two_state_model()
        assert extract_kernel_ir(model).digest() == (
            extract_kernel_ir(model).digest()
        )

    def test_digest_distinguishes_closure_constants(self):
        # two structurally identical models whose rates differ only in a
        # closure constant must not collide (the probe rows catch this)
        def build(k):
            p = Place("p", 1)
            model = SANModel("two-state")
            model.add_activity(
                TimedActivity(
                    "tick",
                    rate=MarkingFunction({"p": p}, lambda g: k * g["p"] + 0.5),
                    cases=[Case(1.0)],
                )
            )
            return model

        assert extract_kernel_ir(build(1.0)).digest() != (
            extract_kernel_ir(build(2.0)).digest()
        )

    def test_none_for_inapplicable_models(self):
        assert extract_kernel_ir(model_untimed()) is None
        assert extract_kernel_ir(model_non_markovian()) is None

    def test_insta_group_table_specs(self):
        ir = extract_kernel_ir(make_wide_alarm_model(21)[0])
        [group] = ir.insta["groups"]
        assert group["members"] == ["alarm"]
        assert group["table"]["dead"] is True
        assert len(group["table"]["shared_slots"]) == 22
        assert ir.stats["insta_tabulated"] == 0

        ir = extract_kernel_ir(make_wide_alarm_model(4)[0])
        [group] = ir.insta["groups"]
        assert group["table"]["dead"] is False
        assert group["table"]["span"] == 2 ** 5
        assert ir.stats["insta_tabulated"] == 1

    def test_fallback_reasons_recorded(self):
        ir = extract_kernel_ir(model_resisting_gate())
        assert "both" in ir.fallbacks


class TestReportRoundTrip:
    def test_json_round_trip_includes_new_families(self):
        import json

        report = analyze_model(model_nan_rate())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["summary"]["warnings"] >= 1
        assert sorted(data["stats"]["families"]) == [
            "determinism",
            "footprint",
            "lowering",
            "structural",
            "tensor",
            "vectorization",
        ]
        rules = {d["rule"] for d in data["diagnostics"]}
        assert "LW001" in rules
        for diag in data["diagnostics"]:
            assert diag["severity"] in {"info", "warning", "error"}
