import numpy as np
import pytest

from promptlab.data import SyntheticTaskSpec, generate_dataset
from promptlab.encoder import EncoderConfig, EncoderState, PromptStack
from promptlab.errors import AggregationError, DimensionError, EvaluationError, InvariantError
from promptlab.evaluate import (
    COORD_COLUMNS,
    METRIC_COLUMNS,
    EvalReport,
    MetricSummary,
    accuracy,
    aggregate_seeds,
    emit_table,
    export_embeddings,
    harmonic_mean,
    parse_table,
)
from promptlab.trainer import _forward_features


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_all_correct():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 100.0


def test_accuracy_none_correct():
    assert accuracy([1, 2, 3], [4, 5, 6]) == 0.0


def test_accuracy_three_of_four():
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 75.0


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(DimensionError):
        accuracy([1, 2], [1, 2, 3])


def test_accuracy_rejects_empty_input():
    with pytest.raises(EvaluationError):
        accuracy([], [])


# ---------------------------------------------------------------------------
# harmonic mean
# ---------------------------------------------------------------------------

def test_harmonic_mean_published_pairs():
    assert abs(harmonic_mean(85.20, 73.22) - 78.76) <= 0.01
    assert abs(harmonic_mean(82.69, 63.22) - 71.66) <= 0.01


@pytest.mark.parametrize("x", [1.0, 37.5, 96.63, 100.0])
def test_harmonic_mean_of_equal_arguments_is_identity(x):
    assert harmonic_mean(x, x) == pytest.approx(x, abs=1e-12)


def test_harmonic_mean_of_double_zero_is_zero_with_flag():
    with pytest.warns(RuntimeWarning):
        assert harmonic_mean(0.0, 0.0) == 0.0


def test_harmonic_mean_rejects_negatives():
    with pytest.raises(EvaluationError):
        harmonic_mean(-1.0, 50.0)


def test_harmonic_mean_bounded_by_arithmetic_mean():
    rng = np.random.default_rng(0)
    for _ in range(200):
        base, novel = rng.uniform(0, 100, size=2)
        assert harmonic_mean(base, novel) <= 0.5 * (base + novel) + 1e-12


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _record(seed, metrics, coords=None, params=128):
    return {
        "seed": seed,
        "coordinates": coords or {"strategy": "progressive", "alpha": 0.1},
        "eval_metrics": metrics,
        "trainable_params": params,
    }


def test_metric_summary_formats_like_published_tables():
    assert str(MetricSummary(96.63, 0.17, 3)) == "96.63 ± 0.17"


def test_aggregate_single_record_has_zero_stddev():
    out = aggregate_seeds([_record(0, {"base_accuracy": 88.0})])
    summary = out["metrics"]["base_accuracy"]
    assert summary.mean == 88.0
    assert summary.stddev == 0.0
    assert summary.count == 1


def test_aggregate_two_values_population_stddev():
    out = aggregate_seeds([
        _record(0, {"base_accuracy": 70.0}),
        _record(1, {"base_accuracy": 80.0}),
    ])
    assert str(out["metrics"]["base_accuracy"]) == "75.00 ± 5.00"
    assert out["seeds"] == (0, 1)


def test_aggregate_keeps_only_shared_metrics():
    out = aggregate_seeds([
        _record(0, {"base_accuracy": 70.0, "novel_accuracy": 60.0}),
        _record(1, {"base_accuracy": 80.0}),
    ])
    assert set(out["metrics"]) == {"base_accuracy"}


def test_aggregate_rejects_mixed_coordinates():
    with pytest.raises(AggregationError, match="alpha"):
        aggregate_seeds([
            _record(0, {"base_accuracy": 70.0}),
            _record(1, {"base_accuracy": 80.0}, coords={"strategy": "progressive", "alpha": 0.5}),
        ])


def test_aggregate_rejects_empty_input():
    with pytest.raises(AggregationError):
        aggregate_seeds([])


# ---------------------------------------------------------------------------
# EvalReport
# ---------------------------------------------------------------------------

def _full_record(seed, base, novel, params=128):
    return _record(seed, {
        "base_accuracy": base,
        "novel_accuracy": novel,
        "harmonic_mean": harmonic_mean(base, novel),
    }, params=params)


def test_report_from_records_averages_per_metric():
    report = EvalReport.from_records([_full_record(0, 80.0, 60.0),
                                      _full_record(1, 90.0, 70.0)])
    assert report.base_accuracy == pytest.approx(85.0)
    assert report.novel_accuracy == pytest.approx(65.0)
    assert report.seeds == (0, 1)
    assert report.seed_count == 2
    assert report.trainable_param_count == 128


def test_report_rejects_out_of_range_accuracy():
    with pytest.raises(EvaluationError):
        EvalReport(coordinates={}, base_accuracy=101.0, novel_accuracy=50.0,
                   harmonic_mean=50.0)
    with pytest.raises(EvaluationError):
        EvalReport(coordinates={}, base_accuracy=50.0, novel_accuracy=-1.0,
                   harmonic_mean=10.0)


def test_report_rejects_impossible_harmonic_mean():
    with pytest.raises(InvariantError):
        EvalReport(coordinates={}, base_accuracy=50.0, novel_accuracy=50.0,
                   harmonic_mean=60.0)


def test_report_from_records_needs_split_metrics():
    with pytest.raises(AggregationError, match="novel_accuracy"):
        EvalReport.from_records([_record(0, {"base_accuracy": 70.0,
                                             "harmonic_mean": 70.0})])


def test_report_from_records_rejects_param_disagreement():
    with pytest.raises(AggregationError):
        EvalReport.from_records([_full_record(0, 80.0, 60.0, params=128),
                                 _full_record(1, 80.0, 60.0, params=256)])


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _report(base=85.2, novel=73.22, coords=None, seeds=(0, 1, 2)):
    return EvalReport(
        coordinates=coords or {
            "strategy": "progressive", "m": 8, "alpha": 0.1, "loss_mode": "ref",
            "lambda": 1.0, "beta": None, "depth_range": "1..4", "shots": 16,
            "mode": "base_to_novel",
        },
        base_accuracy=base,
        novel_accuracy=novel,
        harmonic_mean=harmonic_mean(base, novel),
        seeds=seeds,
        trainable_param_count=1024,
    )


def test_csv_table_shape_and_header():
    text = emit_table([_report(), _report(base=90.0, novel=80.0)], format="csv")
    lines = text.split("\r\n")
    assert lines[-1] == ""
    assert len(lines) == 4          # header + 2 rows + trailing terminator
    assert lines[0] == ",".join(COORD_COLUMNS + METRIC_COLUMNS)


def test_csv_table_round_trips_at_printed_precision():
    reports = [_report(), _report(base=91.37, novel=64.01)]
    rows = parse_table(emit_table(reports, format="csv"), format="csv")
    assert len(rows) == 2
    for row, report in zip(rows, reports):
        assert row["base"] == round(report.base_accuracy, 2)
        assert row["novel"] == round(report.novel_accuracy, 2)
        assert row["h"] == round(report.harmonic_mean, 2)
        assert row["params"] == 1024
        assert row["seed_count"] == 3
        assert row["strategy"] == "progressive"
        assert row["alpha"] == 0.1
        assert row["beta"] is None
        assert row["depth_range"] == "1..4"


def test_csv_quotes_fields_containing_delimiters():
    coords = {"strategy": 'odd,"name"', "m": 1, "alpha": None, "loss_mode": "ce_only",
              "lambda": None, "beta": None, "depth_range": "1..1", "shots": 1,
              "mode": "few_shot"}
    text = emit_table([_report(coords=coords)], format="csv")
    assert '"odd,""name"""' in text
    rows = parse_table(text, format="csv")
    assert rows[0]["strategy"] == 'odd,"name"'


def test_markdown_table_two_decimal_h():
    text = emit_table([_report()], format="markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| strategy |")
    assert lines[1].startswith("| ---")
    assert "| 78.76 |" in lines[2]


def test_markdown_table_round_trips():
    reports = [_report(), _report(base=55.5, novel=44.4)]
    rows = parse_table(emit_table(reports, format="markdown"), format="markdown")
    assert [r["base"] for r in rows] == [85.2, 55.5]
    assert [r["h"] for r in rows] == [round(r2.harmonic_mean, 2) for r2 in reports]


def test_emit_table_writes_file(tmp_path):
    path = tmp_path / "table.csv"
    text = emit_table([_report()], format="csv", path=path)
    assert path.read_bytes().decode("utf-8") == text


def test_emit_table_rejects_empty_or_unknown_format():
    with pytest.raises(EvaluationError):
        emit_table([], format="csv")
    with pytest.raises(EvaluationError):
        emit_table([_report()], format="latex")


def test_parse_table_rejects_ragged_rows():
    good = emit_table([_report()], format="csv")
    lines = good.split("\r\n")
    bad = lines[0] + "\r\n" + lines[1] + ",extra\r\n"
    with pytest.raises(EvaluationError):
        parse_table(bad, format="csv")


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------

ENC_CFG = EncoderConfig(depth=2, width=16, heads=2, patch_count=4, patch_dim=6,
                        output_dim=8, seed=11)
SPEC = SyntheticTaskSpec(class_count=3, patch_count=4, patch_dim=6,
                         samples_per_class=5, noise_std=0.2)


def _variants(images):
    encoder = EncoderState.create(ENC_CFG)
    stack = PromptStack.create("deep", 2, ENC_CFG.width, active_layers=(0, 1), seed=5)
    return {
        "frozen": _forward_features(encoder, images),
        "prompted": _forward_features(encoder, images, stack=stack),
    }


def test_export_row_count_and_header(tmp_path):
    store = generate_dataset(SPEC, 0)
    path = tmp_path / "emb.tsv"
    count = export_embeddings(_variants(store.samples[:10]), store.labels[:10], path)
    lines = path.read_text().splitlines()
    assert count == 20
    assert len(lines) == 21
    assert lines[0].split("\t") == ["variant", "label"] + [f"f{i}" for i in range(8)]


def test_export_is_deterministic(tmp_path):
    store = generate_dataset(SPEC, 0)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_embeddings(_variants(store.samples[:6]), store.labels[:6], a)
    export_embeddings(_variants(store.samples[:6]), store.labels[:6], b)
    assert a.read_bytes() == b.read_bytes()


def test_export_prompted_rows_differ_from_frozen(tmp_path):
    store = generate_dataset(SPEC, 0)
    path = tmp_path / "emb.tsv"
    export_embeddings(_variants(store.samples[:6]), store.labels[:6], path)
    frozen, prompted = {}, {}
    for line in path.read_text().splitlines()[1:]:
        cells = line.split("\t")
        target = frozen if cells[0] == "frozen" else prompted
        target[len(target)] = np.array([float(v) for v in cells[2:]])
    gaps = [np.abs(frozen[i] - prompted[i]).max() for i in frozen]
    assert max(gaps) > 0


def test_export_values_match_forward_exactly(tmp_path):
    store = generate_dataset(SPEC, 0)
    path = tmp_path / "emb.tsv"
    export_embeddings(_variants(store.samples[:4]), store.labels[:4], path)
    lines = [l.split("\t") for l in path.read_text().splitlines()[1:]]
    frozen_rows = np.array([[float(v) for v in cells[2:]]
                            for cells in lines if cells[0] == "frozen"])
    expected = EncoderState.create(ENC_CFG).forward(store.samples[:4])
    assert np.array_equal(frozen_rows, expected.data)


def test_export_rejects_dim_mismatch(tmp_path):
    other_cfg = EncoderConfig(depth=1, width=16, heads=2, patch_count=4, patch_dim=6,
                              output_dim=6, seed=2)
    store = generate_dataset(SPEC, 0)
    variants = _variants(store.samples[:4])
    variants["small"] = _forward_features(EncoderState.create(other_cfg), store.samples[:4])
    with pytest.raises(DimensionError):
        export_embeddings(variants, store.labels[:4], tmp_path / "emb.tsv")


def test_export_rejects_label_mismatch_and_empty(tmp_path):
    store = generate_dataset(SPEC, 0)
    with pytest.raises(DimensionError):
        export_embeddings(_variants(store.samples[:4]), store.labels[:3],
                          tmp_path / "emb.tsv")
    with pytest.raises(EvaluationError):
        export_embeddings({}, store.labels[:4], tmp_path / "emb.tsv")
