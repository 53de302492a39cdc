"""Self-tests of the benchmark harness:  python3 -m pytest perfbench -q"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import functorlab.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_self_ns, self_ns  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # op [0, 100] holds a [10, 60] (which holds b [20, 30]) and c [70, 90]
    spans = [
        Span("op", "bench", 0, 100, -1, 0),
        Span("a", "gamma_section", 10, 60, 0, 0),
        Span("b", "intlinalg", 20, 30, 1, 0),
        Span("c", "intlinalg", 70, 90, 0, 0),
    ]
    assert self_ns(spans) == [30, 40, 10, 20]
    assert layer_self_ns(spans) == {"bench": 30, "gamma_section": 40, "intlinalg": 30}
    assert sum(self_ns(spans)) == 100


def test_raising_op_is_counted_and_the_pass_goes_on():
    ran = []

    def boom():
        raise ZeroDivisionError("boom")

    def wrong():
        workloads.expect(1 == 2, "wrong verdict")

    ops = [
        workloads.Op("first", lambda: ran.append("first")),
        workloads.Op("raises", boom),
        workloads.Op("wrong", wrong),
        workloads.Op("last", lambda: ran.append("last")),
    ]
    for tracer in (None, Tracer()):
        ran.clear()
        failures = workloads.run_ops(ops, tracer)
        assert [name for name, _ in failures] == ["raises", "wrong"]
        assert failures[1][1] == "OpFailed: wrong verdict"
        assert ran == ["first", "last"]


def test_tracer_patches_every_namespace_and_restores_them():
    from functorlab import functors, gamma_section

    original = gamma_section.gamma_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert functors.gamma_matrix is gamma_section.gamma_matrix is not original
        tracer.run_op(0, "op", lambda: functors.restrict_scalars(functors.extract_gamma_structure(functors.Sym(2), 2)))
        tracer.run_op(1, "op", lambda: gamma_section.gamma_matrix(2, 2))
    finally:
        tracer.uninstall()
    assert functors.gamma_matrix is gamma_section.gamma_matrix is original
    m = tracer.metrics()
    assert m["gamma_section.gamma_matrix_calls"] == 2
    assert m["gamma_section.gamma_matrix_distinct_ratio"] == 1.0
    assert m["augmentation.algebras_built"] >= 1
    names = {s.name for s in tracer.spans}
    assert {"op", "restrict_scalars", "gamma_matrix", "MoritaModule.__init__"} <= names
    # every span closed, parents precede children, and the roots are the ops
    assert all(s is not None and s.parent < i for i, s in enumerate(tracer.spans))
    assert [s.op for s in tracer.spans if s.parent == -1] == [0, 1]


def test_entry_bits_cover_snf_transforms():
    from functorlab import intlinalg

    tracer = Tracer()
    tracer.install()
    try:
        intlinalg.smith_normal_form(intlinalg.Matrix([[2, 4], [6, 1000]]))
    finally:
        tracer.uninstall()
    assert tracer.metrics()["intlinalg.max_entry_bits"] >= (988).bit_length()


def test_summary_quartiles_and_units():
    s = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert s["q1"] <= s["median"] <= s["q3"]
    assert run.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    assert run.layer_unit("intlinalg.hnf_s") == "s"
    assert run.layer_unit("intlinalg.hnf_calls") == "count"


def test_benchmark_json_names_what_the_runs_print():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layers = list(Tracer().metrics()) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: run.layer_unit(n) for n in layers}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_known_failures_are_counted_but_only_new_ones_are_incorrect():
    def pass_result(failures, run_s):
        return {"traced": False, "run_s": run_s, "wall_run_s": run_s * 2, "peak_rss_mb": 30.0, "attempted": 36,
                "failures": [[name, "OpFailed: x"] for name in failures], "sizes": {}}

    known = {"kernel-lattice-match(2,4)"}
    passes = [pass_result(["kernel-lattice-match(2,4)"], 2.0), pass_result(["kernel-lattice-match(2,4)"], 4.0)]
    setup = [{"setup_s": v, "wall_setup_s": v * 2} for v in (0.1, 0.3, 0.2)]
    rec = run.aggregate("invariants", setup, passes, False, known)
    assert (rec["correct"], rec["attempted"], rec["failed"]) == (True, 72, 2)
    assert rec["metrics"]["run_s"] == {"value": 3.0, "unit": "s"}
    assert rec["metrics"]["setup_s"]["value"] == 0.2
    assert rec["wall"] == {"setup_s": 0.4, "run_s": 6.0}
    passes.append(pass_result(["section-identity(2,4)"], 3.0))
    rec = run.aggregate("invariants", setup[:1], passes, False, known)
    assert (rec["correct"], rec["failed"]) == (False, 3)


def test_sampler_scales_to_the_nominal_reference_time():
    import time

    import calibrate

    with calibrate.Sampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3  # one per INTERVAL_S
    assert 0 < sampler.spent_s < 0.3
    sampler.samples = [calibrate.NOMINAL_S * 2] * 4
    assert sampler.scale() == 0.5
    # one stalled sample in twenty is trimmed, not averaged in
    sampler.samples = [calibrate.NOMINAL_S] * 19 + [calibrate.NOMINAL_S * 50]
    assert abs(sampler.scale() - 1.0) < 1e-9
    assert len(calibrate.Sampler().take(5).samples) == 5
