import types

import pytest

from perfbench import run
from perfbench.tracing import Span, Target, Tracer, progtab_targets, self_times, top_level_time
from progtab import progressive
from progtab.data import SplitSpec, SyntheticSpec, make_split, synthesize_dataset


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("c", 11.0, 12.5, -1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 6.0, "b": 3.0, "c": 2.5})
    assert sum(own.values()) == pytest.approx(top_level_time(spans))
    assert top_level_time(spans) == pytest.approx(11.5)


def _toy_module():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_records_parents_counts_and_restores():
    mod = _toy_module()
    originals = dict(vars(mod))
    tracer = Tracer([Target(mod, "outer", "toy.outer"),
                     Target(mod, "inner", "toy.inner", lambda a, r: ("toy.rows", a[0]))])
    with tracer:
        assert mod.outer(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("toy.outer", -1), ("toy.inner", 0), ("toy.inner", 0)]
    assert tracer.counters == {"toy.outer_calls": 1, "toy.inner_calls": 2, "toy.rows": 6}
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        top_level_time(tracer.spans))
    assert all(vars(mod)[k] is v for k, v in originals.items())


def test_tracer_restores_after_an_exception():
    mod = _toy_module()
    original = mod.inner
    tracer = Tracer([Target(mod, "inner", "toy.inner")])
    with pytest.raises(TypeError):
        with tracer:
            mod.outer(None)
    assert mod.inner is original
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_progtab_wrappers_are_removed_after_a_traced_run():
    targets = progtab_targets()
    originals = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]
    ds = synthesize_dataset(SyntheticSpec(300, 2, 10, 1, 3, 1.0, 5))
    split = make_split(ds, SplitSpec(0.8, 0.2, 5))
    config = progressive.RunConfig(pipeline="vime", n_runs=2, pretext_epochs=1,
                                   semisup_epochs=1, predictor_hidden=(8,), latent_dim=4,
                                   refinement_mode="classifier_threshold", seed=5)
    tracer = Tracer(targets)
    with tracer:
        progressive.run_progressive(ds, split, config)
    assert tracer.counters["progressive.run_calls"] == 1
    assert tracer.counters["encoding.encode_calls"] == 2
    assert tracer.counters["encoding.fit_calls"] == 2
    assert tracer.counters["vime.pretext_train_calls"] == 2
    assert tracer.counters["nn.forward_rows"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{attr} still wrapped"
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(top_level_time(tracer.spans))
    assert min(own.values()) >= -1e-9


def test_every_span_has_a_per_layer_metric():
    assert {t.span for t in progtab_targets()} == set(run.TIMED_SPANS)
