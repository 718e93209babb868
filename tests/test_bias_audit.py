"""Bias-audit contracts: clustering determinism and recovery, per-cluster
CoV arithmetic, scorer-bias contrast, and tabular I/O."""

import csv
import json

import numpy as np
import pytest
from helpers import philox
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowstage import bias_audit, cli
from flowstage.bias_audit import audit, kmeans, read_items_csv
from flowstage.config import DEFAULTS
from flowstage.errors import DomainError, ShapeError

MAX_ITERS = DEFAULTS["audit"]["max_iters"]


def blob_features(rng, centers, per_cluster, radius=0.3):
    feats, truth = [], []
    for idx, center in enumerate(centers):
        pts = center + radius * rng.standard_normal(per_cluster * len(center)).reshape(
            per_cluster, len(center)
        )
        feats.append(pts)
        truth.extend([idx] * per_cluster)
    return np.concatenate(feats), np.array(truth)


def synthetic_items(num_clusters=20, per_cluster=100, bias_range=0.0, seed=0):
    """``(scores, features, labels)`` of items in well-separated blobs;
    optional per-cluster score offsets."""
    rng = philox(seed)
    centers = 10.0 * rng.standard_normal(num_clusters * 5).reshape(num_clusters, 5)
    feats, truth = blob_features(rng, centers, per_cluster)
    offsets = (
        bias_range * (rng.random(num_clusters) - 0.5) * 2.0
        if bias_range > 0.0
        else np.zeros(num_clusters)
    )
    noise = 0.01 * rng.standard_normal(len(feats))
    return 1.0 + offsets[truth] + noise, feats, truth


class TestKmeans:
    def test_k_equals_items_gives_singletons(self):
        rng = philox(1)
        feats = rng.standard_normal(12).reshape(6, 2)
        labels = kmeans(feats, 6, seed=0, max_iters=MAX_ITERS)
        assert len(set(labels.tolist())) == 6

    def test_two_separated_blobs_recovered(self):
        rng = philox(2)
        feats, truth = blob_features(
            rng, np.array([[0.0, 0.0], [50.0, 50.0]]), 40, radius=0.5
        )
        labels = kmeans(feats, 2, seed=3, max_iters=MAX_ITERS)
        first, second = labels[truth == 0], labels[truth == 1]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_deterministic_under_seed(self):
        rng = philox(3)
        feats = rng.standard_normal(200).reshape(100, 2)
        np.testing.assert_array_equal(kmeans(feats, 5, seed=9, max_iters=MAX_ITERS),
                                      kmeans(feats, 5, seed=9, max_iters=MAX_ITERS))

    @pytest.mark.parametrize("seed", [0, 1, 9001, 2**40 + 7])
    def test_first_center_is_numpy_root_stream(self, seed):
        # with k = n every point is its own cluster, and cluster 0 is the
        # first center, drawn from numpy's Philox of the seed
        n = 50
        labels = kmeans(np.arange(n)[:, None], n, seed=seed, max_iters=1)
        first = np.random.Generator(np.random.Philox(seed)).integers(0, n)
        assert np.flatnonzero(labels == 0)[0] == first

    def test_k_larger_than_items_rejected(self):
        with pytest.raises(DomainError):
            kmeans(np.zeros((3, 2)), 4, max_iters=MAX_ITERS)

    def test_k_above_distinct_points_names_them(self):
        with pytest.raises(DomainError, match="^k=2 clusters, but the features hold only 1 "
                                              "distinct points$"):
            kmeans(np.ones((4, 2)), 2, max_iters=MAX_ITERS)
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = kmeans(feats, 3, max_iters=MAX_ITERS)
        assert sorted(set(labels.tolist())) == [0, 1, 2] and labels[1] == labels[3]
        with pytest.raises(DomainError, match="^k=4 clusters, but the features hold only 3 "
                                              "distinct points$"):
            kmeans(feats, 4, max_iters=MAX_ITERS)


def kappas(report) -> list:
    return [cluster["kappa"] for cluster in report["clusters"]]


class TestClusterKappa:
    """Each cluster's kappa, std / |mean| * 100, as :func:`audit` reports
    it for items that all carry one label."""

    @staticmethod
    def one_cluster(scores) -> list:
        return kappas(audit(scores, labels=np.zeros(len(scores)), max_iters=MAX_ITERS))

    def test_constant_cluster_is_zero(self):
        assert self.one_cluster(np.array([1.0, 1.0, 1.0])) == [0.0]

    def test_hand_case(self):
        # (2, 4): population std 1, mean 3 -> 33.33 percent
        (kappa,) = self.one_cluster(np.array([2.0, 4.0]))
        assert kappa == pytest.approx(100.0 / 3.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = philox(4)
        scores = rng.random(30) + 0.5
        (k1,) = self.one_cluster(scores)
        (k2,) = self.one_cluster(scores * 17.0)
        assert k1 == pytest.approx(k2, abs=1e-9)

    def test_zero_mean_is_not_applicable(self):
        assert self.one_cluster(np.array([-1.0, 1.0])) == [None]


class TestAudit:
    def test_unbiased_scorer_low_cross_cluster_cov(self):
        for seed in range(5):
            scores, feats, _ = synthetic_items(bias_range=0.0, seed=seed)
            report = audit(scores, feats, k=20, seed=seed, max_iters=MAX_ITERS)
            assert report["inter_cluster_cov"] < 2.0

    def test_biased_scorer_at_least_ten_times_unbiased(self):
        unbiased = audit(*synthetic_items(bias_range=0.0, seed=1), k=20, seed=1,
                         max_iters=MAX_ITERS)
        biased = audit(*synthetic_items(bias_range=0.5, seed=1), k=20, seed=1,
                       max_iters=MAX_ITERS)
        assert biased["inter_cluster_cov"] >= 10.0 * unbiased["inter_cluster_cov"]

    def test_labels_bypass_clustering(self):
        report = audit([1.0, 3.0, 10.0, 30.0], labels=[0, 0, 1, 1], max_iters=MAX_ITERS)
        assert report["used_labels"]
        assert report["k"] == 2
        np.testing.assert_allclose([c["mean"] for c in report["clusters"]], [2.0, 20.0],
                                   rtol=1e-12)
        np.testing.assert_allclose([c["size"] for c in report["clusters"]], [2, 2])

    def test_kappa_scale_invariance_through_audit(self):
        scores, feats, _ = synthetic_items(num_clusters=5, per_cluster=20, bias_range=0.3,
                                           seed=7)
        r1 = audit(scores, feats, k=5, seed=0, max_iters=MAX_ITERS)
        r2 = audit(scores * 3.5, feats, k=5, seed=0, max_iters=MAX_ITERS)
        np.testing.assert_allclose(kappas(r1), kappas(r2), atol=1e-9)
        assert r1["inter_cluster_cov"] == pytest.approx(r2["inter_cluster_cov"], abs=1e-9)

    def test_missing_labels_rejected_when_no_k(self):
        with pytest.raises(DomainError):
            audit([1.0, 2.0], features=[[0.0, 1.0], [1.0, 0.0]], max_iters=MAX_ITERS)

    def test_missing_features_rejected_when_k_given(self):
        with pytest.raises(DomainError):
            audit([1.0, 2.0], labels=[0, 1], k=2, max_iters=MAX_ITERS)

    def test_non_finite_values_rejected(self):
        feats = np.zeros((3, 2))
        with pytest.raises(DomainError, match="item 1: non-finite score"):
            audit([1.0, np.inf, 2.0], feats, k=2, max_iters=MAX_ITERS)
        with pytest.raises(DomainError, match="item 1: non-finite score"):
            audit([1.0, np.nan, 2.0], labels=[0, 0, 1], max_iters=MAX_ITERS)
        feats[2, 1] = np.nan
        with pytest.raises(DomainError, match="item 2: non-finite feature"):
            audit([1.0, 1.5, 2.0], feats, k=1, max_iters=MAX_ITERS)

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            audit([[1.0, 2.0]], labels=[0, 1], max_iters=MAX_ITERS)
        with pytest.raises(ShapeError):
            audit([1.0, 2.0], labels=[0, 1, 1], max_iters=MAX_ITERS)
        with pytest.raises(ShapeError):
            audit([1.0, 2.0], features=[0.0, 1.0], k=1, max_iters=MAX_ITERS)

    def test_report_serialization(self, tmp_path):
        payload, rows = audit_outputs(tmp_path, [1.0, 2.0, 4.0, 2.0], [0, 0, 1, 1])
        assert payload["std_convention"] == "population"
        assert payload["k"] == 2
        assert len(rows) == 3

    def test_zero_mean_cluster_writes_an_empty_kappa_cell(self, tmp_path):
        payload, rows = audit_outputs(tmp_path, [-1.0, 1.0, 4.0, 2.0], [0, 0, 1, 1])
        assert payload["clusters"][0]["kappa"] is None
        assert rows[0][-1] == "kappa" and rows[1][-1] == ""
        assert float(rows[2][-1]) == payload["clusters"][1]["kappa"]


class TestTabularIO:
    def test_read_items_with_features_and_labels(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "id,score,label,f0,f1\n"
            "a,1.5,0,0.0,1.0\n"
            "b,2.5,,1.0,0.0\n"
        )
        scores, features, labels = read_items_csv(path)
        np.testing.assert_array_equal(scores, [1.5, 2.5])
        np.testing.assert_array_equal(features, [[0.0, 1.0], [1.0, 0.0]])
        assert labels is None  # one row is unlabelled
        path.write_text(
            "id,score,label,f0,f1\n"
            "a,1.5,0,0.0,1.0\n"
            "b,2.5,2,1.0,0.0\n"
        )
        _, _, labels = read_items_csv(path)
        np.testing.assert_array_equal(labels, [0, 2])

    def test_quoted_ids_blank_lines_and_extra_fields(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            'label,id,score\n'
            '3,"a, ""first""",0.25\n'
            '\n'
            '1,"b\nsecond",0.5,ignored\n'
        )
        scores, features, labels = read_items_csv(path)
        np.testing.assert_array_equal(scores, [0.25, 0.5])
        assert features is None
        np.testing.assert_array_equal(labels, [3, 1])

    def test_read_items_requires_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,value\nx,1\n")
        with pytest.raises(DomainError):
            read_items_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("id,score,f,f\na,0.5,1.0,2.0\nb,0.5,3.0,4.0\n")
        with pytest.raises(DomainError, match="repeats column 'f'"):
            read_items_csv(path)

    def test_header_only_is_no_items(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("id,score,label,f0\n\n")
        with pytest.raises(DomainError, match="no items"):
            read_items_csv(path)

    @pytest.mark.parametrize("header, bad_row, message", [
        ("id,score,f0", "b,abc,2.0", "line 3, column 'score': could not convert string to "
                                     "float: 'abc'"),
        ("id,score,f0", "b,1.0,2.0x", "line 3, column 'f0': could not convert string to "
                                      "float: '2.0x'"),
        ("id,score,label", "b,1.0,3.0", "line 3, column 'label': invalid literal for int() "
                                        "with base 10: '3.0'"),
        # numpy's parser would strip the separator as whitespace
        ("id,score,f0", "b,\x1c1.0,2.0", "line 3, column 'score': could not convert string to "
                                         "float: '\\x1c1.0'"),
    ], ids=["score", "feature", "label", "separator"])
    def test_unparsable_field_names_line_and_column(self, tmp_path, header, bad_row, message):
        path = tmp_path / "items.csv"
        path.write_text(f"{header}\na,1.0,1\n{bad_row}\n")
        with pytest.raises(DomainError) as exc:
            read_items_csv(path)
        assert str(exc.value) == f"{path}, {message}"

    # line 3 is in the decoder's first chunk, so the header's read fails;
    # line 2,000 is past it and in numpy's first chunk of 50,000 lines
    @pytest.mark.parametrize("line", [1, 3, 2_000, 50_003],
                             ids=["header", "body", "numpy-chunk", "past-numpy-chunk"])
    def test_line_not_utf8_named(self, tmp_path, line):
        lines = [b"id,score,f0"] + [b"item%d,0.5,%d.25" % (i, i) for i in range(50_005)]
        lines[line - 1] = lines[line - 1].replace(b"i", b"i\xff", 1)
        path = tmp_path / "items.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(DomainError) as exc:
            read_items_csv(path)
        assert str(exc.value) == (f"{path}, line {line}: not UTF-8 ('utf-8' codec can't decode "
                                  f"byte 0xff in position 1: invalid start byte)")

    def test_utf8_ids_read(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("id,score,f0\ncafé,0.5,1.0\n\u65e5\u672c,1.5,2.0\n", encoding="utf-8")
        scores, features, _ = read_items_csv(path)
        np.testing.assert_array_equal(scores, [0.5, 1.5])
        np.testing.assert_array_equal(features, [[1.0], [2.0]])

    @pytest.mark.parametrize("f0", ["0.5", "1_0"], ids=["numpy", "row-loop"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, f0):
        # spreadsheet programs' "CSV UTF-8" export starts with a byte-order
        # mark; numpy declines ``1_0``, so the row loop reads that file
        text = f"id,score,label,f0\na,1.5,0,{f0}\nb,2.5,2,1.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        looped, read_rows = [], bias_audit._read_rows
        monkeypatch.setattr(bias_audit, "_read_rows",
                            lambda path: looped.append(path) or read_rows(path))
        for got, want in zip(read_items_csv(marked), read_items_csv(plain)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert looped == ([] if f0 == "0.5" else [marked, plain])

    @pytest.mark.parametrize("line", [3, 2_000], ids=["body", "numpy-chunk"])
    def test_line_not_utf8_named_after_a_byte_order_mark(self, tmp_path, line):
        lines = [b"id,score,f0"] + [b"item%d,0.5,%d.25" % (i, i) for i in range(2_005)]
        lines[line - 1] = lines[line - 1].replace(b"i", b"i\xff", 1)
        path = tmp_path / "items.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines) + b"\n")
        with pytest.raises(DomainError) as exc:
            read_items_csv(path)
        assert str(exc.value) == (f"{path}, line {line}: not UTF-8 ('utf-8' codec can't decode "
                                  f"byte 0xff in position 1: invalid start byte)")

    @pytest.mark.parametrize("second, labels", [("2", [0, 2]), ("", None)],
                             ids=["labelled", "one-unlabelled"])
    def test_labels_read_without_the_row_loop(self, tmp_path, monkeypatch, second, labels):
        path = tmp_path / "items.csv"
        path.write_text(f"id,score,label,f0\na,1.5,0,0.5\nb,2.5,{second},1.5\n")
        monkeypatch.setattr(bias_audit, "_read_rows", None)
        scores, features, got = read_items_csv(path)
        np.testing.assert_array_equal(scores, [1.5, 2.5])
        np.testing.assert_array_equal(features, [[0.5], [1.5]])
        if labels is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, labels)


FLOAT_FORMATS = (repr, "{:.5g}".format, "{:.17e}".format, "{:.25e}".format)
# text numpy's parser and ``float`` may read differently, non-finite values
# and fields that do not parse at all
ODD_NUMBERS = ["inf", "-Infinity", "nan", "-NaN", "1e400", "1_0", "\u0661\u0662", " 2.5 ",
               "\t-0.0", "\x1c2.5", "2.5\x1f", "\xa02.5", "", "abc", '"2.5"', '"2"5', '2"5"']
ODD_LABELS = [" 3 ", "+4", "3.0", "1_0", "\u0663", "99999999999999999999", "x", '"7"']
IDS = ["item", '"a, b"', '"say ""hi"""', '"two\nlines"', '"cr\r\nlf"', "", '"1,2\n3"']


def _number_text(data, odd: int) -> str:
    """A score or feature field; odd text with probability ``odd``/10."""
    if data.draw(st.integers(0, 9)) < odd:
        return data.draw(st.sampled_from(ODD_NUMBERS))
    value = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    return data.draw(st.sampled_from(FLOAT_FORMATS))(value)


def _label_text(data, odd: int, missing: int) -> str:
    roll = data.draw(st.integers(0, 9))
    if roll < odd:
        return data.draw(st.sampled_from(ODD_LABELS))
    if roll < odd + missing:
        return ""
    return str(data.draw(st.integers(-3, 20)))


def _items_text(data) -> str:
    """A CSV of items: any column order, quoted ids with commas, doubled
    quotes and newlines, blank lines, CRLF or LF line ends, extra and
    missing trailing fields, odd numbers and labels, or no rows at all."""
    odd = data.draw(st.sampled_from([0, 0, 1, 3]))
    names = ["id", "score"] + [f"f{j}" for j in range(data.draw(st.integers(0, 3)))]
    missing = None
    if data.draw(st.booleans()):
        names.append("label")
        missing = data.draw(st.sampled_from([0, 0, 1]))
    header = data.draw(st.permutations(names))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)]
    for _ in range(data.draw(st.integers(0, 5))):
        fields = [data.draw(st.sampled_from(IDS)) if name == "id"
                  else _label_text(data, odd, missing) if name == "label"
                  else _number_text(data, odd) for name in header]
        roll = data.draw(st.integers(0, 19))
        if roll == 0:
            fields.pop()  # a short row
        elif roll == 1:
            fields += ["extra", "1.0"]
        elif roll == 2:
            lines.append("")  # a blank line
        lines.append(",".join(fields))
    return eol.join(lines) + data.draw(st.sampled_from([eol, ""]))


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestReaderOracle:
    """``read_items_csv`` against the row loop it falls back on."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_matches_the_row_loop(self, tmp_path, data):
        path = tmp_path / "items.csv"
        with open(path, "w", newline="", encoding="utf-8") as fp:
            fp.write(_items_text(data))
        got, want = _outcome(read_items_csv, path), _outcome(bias_audit._read_rows, path)
        if isinstance(want[0], type):
            assert got == want
            return
        assert not isinstance(got[0], type), got
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and g.shape == w.shape
                if w.dtype == object:  # labels beyond int64: an array of Python ints
                    assert g.tolist() == w.tolist()
                else:
                    assert g.tobytes() == w.tobytes()


def six_items(tmp_path, rows):
    path = tmp_path / "items.csv"
    path.write_text("id,score,f0,f1\n" + "".join(f"item{i},{r}\n" for i, r in enumerate(rows)))
    return path


def run_audit(tmp_path, items, k):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mode": "audit", "outdir": str(tmp_path / "out"),
                                  "audit": {"input": str(items), "k": k}}))
    return cli.main([str(config)]), tmp_path / "out"


def audit_outputs(tmp_path, scores, labels):
    """``audit_report.json`` and the rows of ``audit_clusters.csv`` of an
    audit run by labels over items with these scores."""
    items = tmp_path / "items.csv"
    items.write_text("id,score,label\n" + "".join(
        f"item{i},{score!r},{label}\n" for i, (score, label) in enumerate(zip(scores, labels))))
    rc, out = run_audit(tmp_path, items, None)
    assert rc == 0
    with open(out / "audit_clusters.csv", newline="") as fp:
        rows = list(csv.reader(fp))
    return json.loads((out / "audit_report.json").read_text()), rows


class TestBadAuditInputExits2:
    """Malformed item rows end an audit run with exit 2 and a DomainError
    naming the row, before any report is written."""

    GOOD = ["0.1,0.0,0.0", "0.2,0.1,0.0", "0.3,5.0,5.0", "0.4,5.1,5.0", "0.5,9.0,0.0",
            "0.6,9.1,0.0"]

    @pytest.mark.parametrize("row, bad, k, message", [
        (2, "0.3,nan,5.0", 1, "line 4: non-finite feature"),
        (2, "0.3,nan,5.0", 3, "line 4: non-finite feature"),
        (4, "0.5,9.0", 3, "line 6: 3 fields, the header has 4"),
        (0, "inf,0.0,0.0", 3, "line 2: non-finite score"),
        (2, "0.3,abc,5.0", 3, "line 4, column 'f0': could not convert string to float"),
    ], ids=["nan-feature-k1", "nan-feature-k3", "short-row", "inf-score", "abc-feature"])
    def test_bad_row(self, tmp_path, row, bad, k, message):
        rows = list(self.GOOD)
        rows[row] = bad
        rc, out = run_audit(tmp_path, six_items(tmp_path, rows), k)
        assert rc == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "DomainError"
        assert message in failure["message"]
        assert not (out / "audit_report.json").exists()

    def test_line_not_utf8(self, tmp_path):
        items = six_items(tmp_path, self.GOOD)
        items.write_bytes(items.read_bytes().replace(b"item2", b"item\xe92"))
        rc, out = run_audit(tmp_path, items, 3)
        assert rc == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "DomainError"
        assert "line 4: not UTF-8" in failure["message"]

    def test_k_above_distinct_features(self, tmp_path):
        rc, out = run_audit(tmp_path, six_items(tmp_path, ["0.1,1.0,2.0"] * 4), 2)
        assert rc == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "DomainError"
        assert "k=2 clusters, but the features hold only 1 distinct points" in failure["message"]

    def test_good_rows_run(self, tmp_path):
        rc, out = run_audit(tmp_path, six_items(tmp_path, self.GOOD), 3)
        assert rc == 0
        assert [c["size"] for c in json.loads((out / "audit_report.json").read_text())[
            "clusters"]] == [2, 2, 2]
