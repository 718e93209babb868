"""Scorer-bias analysis over clustered items.

Clusters scored items by their features (or groups them by given
labels), computes each cluster's coefficient of variation, and
summarizes cross-cluster preference as the coefficient of variation of
the cluster means.  A scorer that favors specific content shows a large
cross-cluster value; an even-handed one stays low regardless of how many
clusters the items are split into.

N items are three arrays, row i describing item i: ``scores`` (N,),
``features`` (N, d) and ``labels`` (N,), either of the last two None
when the items do not carry them.

All standard deviations here are population (1/N) ones.

:func:`read_items_csv` reads items from a UTF-8 CSV, with or without a
byte-order mark, the body with one ``np.loadtxt`` call that gives the
row loop :func:`_read_rows`'s values bit for bit; that loop reads a file
numpy declines and names bad lines.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import KeyedGenerator, RandomSource


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )


def kmeans(features: np.ndarray, k: int, seed: int = 0, *, max_iters: int) -> np.ndarray:
    """At most ``max_iters`` Lloyd iterations (a run's ``audit.max_iters``)
    from greedy farthest-point seeding.

    Deterministic under the seed: the first center is a random item,
    drawn from the root stream of ``RandomSource(seed)``, each
    further center is the item farthest from all chosen ones (ties to the
    lowest index), and assignment ties also go to the lowest index.
    More clusters than distinct feature vectors is a DomainError.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError("features must be (N, d)")
    n = len(features)
    if not 1 <= k <= n:
        raise DomainError(f"k={k} must lie in [1, {n}]")

    first = int(KeyedGenerator(RandomSource(seed).key()).at(0).integers(0, n))
    centers = [features[first]]
    min_d = np.sum((features - centers[0]) ** 2, axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d))
        if min_d[nxt] == 0.0:  # identical points share a cluster
            raise DomainError(f"k={k} clusters, but the features hold only "
                              f"{len(centers)} distinct points")
        centers.append(features[nxt])
        min_d = np.minimum(min_d, np.sum((features - centers[-1]) ** 2, axis=1))
    centers = np.stack(centers)

    labels = np.argmin(_pairwise_sq_dists(features, centers), axis=1)
    for _ in range(max_iters):
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = features[members].mean(axis=0)
            else:
                # adopt the point currently worst-served by its own center
                d = np.sum((features - centers[labels]) ** 2, axis=1)
                centers[j] = features[int(np.argmax(d))]
        new_labels = np.argmin(_pairwise_sq_dists(features, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels.astype(np.int64)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _pop_std(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)))


def _require_finite(what: str, values: np.ndarray, name_row: Callable[[int], str]) -> None:
    """DomainError naming, by ``name_row(i)``, the first row of ``values``
    that holds a non-finite number."""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise DomainError(f"{name_row(int(np.argmin(finite)))}: non-finite {what}")


def audit(scores, features=None, labels=None, k: int | None = None, seed: int = 0, *,
          max_iters: int) -> dict:
    """Cluster the items by ``features`` into ``k`` clusters (or group them
    by ``labels`` when ``k`` is None) and return per-cluster and
    cross-cluster score statistics as the ``audit_report.json`` dict.

    Cluster j's entry holds its ``index`` j, ``size``, ``mean``,
    population ``std`` and ``kappa``, its percent coefficient of
    variation std / |mean| * 100, None where the mean is zero.
    ``inter_cluster_cov`` is the same statistic of the cluster means
    about their mean, NaN where that is zero."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ShapeError(f"scores must be (N,), got {scores.shape}")
    if len(scores) < 2:
        raise DomainError("need at least 2 items")
    _require_finite("score", scores, "item {}".format)

    if k is None:
        if labels is None:
            raise DomainError("k not given and some items carry no label")
        labels = np.asarray(labels)
        if labels.shape != scores.shape:
            raise ShapeError(f"labels shape {labels.shape}, expected {scores.shape}")
        uniq, labels = np.unique(labels, return_inverse=True)
        num_clusters = len(uniq)
        used_labels = True
    else:
        if features is None:
            raise DomainError("clustering requested but the items carry no features")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(scores):
            raise ShapeError(f"features shape {features.shape}, expected ({len(scores)}, d)")
        _require_finite("feature", features, "item {}".format)
        labels = kmeans(features, k, seed=seed, max_iters=max_iters)
        num_clusters = k
        used_labels = False

    sizes = np.bincount(labels, minlength=num_clusters)
    if (sizes == 0).any():
        raise DomainError("empty cluster in labeling")
    clusters = []
    for j, size in enumerate(sizes.tolist()):
        members = scores[labels == j]
        mean, std = float(members.mean()), _pop_std(members)
        clusters.append({"index": j, "size": size, "mean": mean, "std": std,
                         "kappa": None if mean == 0.0 else std / abs(mean) * 100.0})

    means = np.array([c["mean"] for c in clusters])
    grand = float(means.mean())
    inter = float("nan") if grand == 0.0 else _pop_std(means) / abs(grand) * 100.0
    return {
        "k": num_clusters,
        "std_convention": "population",
        "used_labels": used_labels,
        "inter_cluster_cov": inter,
        "clusters": clusters,
    }


# ---------------------------------------------------------------------------
# Tabular I/O
# ---------------------------------------------------------------------------


def read_items_csv(path):
    """Read items from a CSV with columns ``id``, ``score``, optional
    ``label``, and any further columns treated as feature components.

    Returns ``(scores, features, labels)`` as :func:`audit` takes them:
    ``features`` is None without feature columns, ``labels`` is None
    unless every row has a label.  Fields beyond the header's are
    ignored, and so is a leading byte-order mark, which spreadsheet
    programs write in their "CSV UTF-8" export.  A header without ``id``
    and ``score`` or with a repeated name is a DomainError, and so is a
    row with fewer fields than the header, a field that ``float``
    (``int`` for the label) rejects, a non-finite score or feature, or
    text that is not UTF-8; the message names the line, and the column
    of a field that does not parse.

    ``csv`` reads the header and one ``np.loadtxt`` call the body, from
    the same open file and line by line, so the body's text is never
    held whole; labels go through ``int`` and ids are dropped in that
    pass.  numpy converts decimal text with CPython's
    ``PyOS_string_to_double``, the routine ``float`` uses, so the values
    equal the row loop's bit for bit.  numpy declines a short row, text
    outside its grammar (``1_0``, non-ASCII digits), a body without rows
    and a line holding an ASCII separator; then, or when a value is
    non-finite, or a line is not UTF-8, the row loop :func:`_read_rows`
    reads the file again and returns the same arrays or raises the
    error.  Only it can name a physical line: numpy counts records, and a
    quoted id may span lines.
    csv's limit on a field's length (131,072 characters by default)
    applies only when the row loop runs.
    """
    with open(path, newline="", encoding="utf-8-sig") as fp:
        header = next(csv.reader(_utf8_lines(path, fp)), None)
        id_col, score_col, label_col, feature_cols = _columns(path, header)
        # the id is read, and dropped, so that a row missing it is short
        usecols = [score_col, id_col]
        dtype = [("score", np.float64), ("id", np.uint8)]
        converters = {id_col: lambda text: 0}
        if label_col is not None:
            usecols.append(label_col)
            dtype.append(("label", object))
            converters[label_col] = _label
        if feature_cols:
            usecols.extend(feature_cols)
            dtype.append(("features", np.float64, (len(feature_cols),)))
        try:
            with warnings.catch_warnings():
                # numpy warns of a body with no rows; the row loop names it
                warnings.simplefilter("error", UserWarning)
                table = np.loadtxt(_numpy_lines(fp), dtype=dtype, delimiter=",",
                                   quotechar='"', comments=None, usecols=usecols,
                                   converters=converters, ndmin=1)
        except (ValueError, UserWarning):
            table = None
    if table is None:
        return _read_rows(path)
    scores = np.ascontiguousarray(table["score"])
    features = np.ascontiguousarray(table["features"]) if feature_cols else None
    if not (np.isfinite(scores).all() and (features is None or np.isfinite(features).all())):
        return _read_rows(path)
    return scores, features, _labels(table["label"].tolist() if label_col is not None else [])


def _numpy_lines(fp):
    """The lines of ``fp``; ValueError at one holding an ASCII separator
    (``\\x1c`` to ``\\x1f``), which numpy's number parser strips as
    whitespace and ``float`` does not."""
    for line in fp:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("a line holds an ASCII separator")
        yield line


def _utf8_lines(path, fp):
    """The lines of ``fp``, the file at ``path`` opened as UTF-8 text.
    Where decoding fails, which may be some lines before the bad byte, a
    DomainError names the first line that is not UTF-8, counting lines
    as ``csv`` does (each ends at \\n, \\r or \\r\\n)."""
    try:
        for line in fp:
            yield line
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            lines = (line for chunk in raw for line in chunk.splitlines())
            for number, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DomainError(f"{path}, line {number}: not UTF-8 ({exc})") from None
        raise  # the file changed since it failed to decode


def _read_rows(path):
    """:func:`read_items_csv` row by row: ``csv`` tokenizes, ``float``
    and ``int`` convert as the rows stream past, and every error names
    its line."""
    scores, features, labels, lines = array("d"), array("d"), [], []
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(_utf8_lines(path, fp))
        header = next(reader, None)
        _, score_col, label_col, feature_cols = _columns(path, header)
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) < len(header):
                raise DomainError(f"{path}, line {reader.line_num}: {len(row)} fields, "
                                  f"the header has {len(header)}")
            try:
                if label_col is not None:
                    labels.append(_label(row[label_col]))
                features.extend(map(float, map(row.__getitem__, feature_cols)))
                scores.append(float(row[score_col]))
            except ValueError as exc:
                raise _unparsable(path, reader.line_num, header, row, label_col) from exc
            lines.append(reader.line_num)
    if not lines:
        raise DomainError(f"{path}: no items")

    scores = np.frombuffer(scores)
    features = np.frombuffer(features).reshape(len(lines), -1) if feature_cols else None
    for what, values in (("score", scores), ("feature", features)):
        if values is not None:
            _require_finite(what, values, lambda i: f"{path}, line {lines[i]}")
    return scores, features, _labels(labels)


def _columns(path, header) -> tuple:
    """``(id, score, label, features)``: the columns of ``header`` by
    index, ``label`` None without one and ``features`` a list."""
    if header is None or "id" not in header or "score" not in header:
        raise DomainError(f"{path}: need at least 'id' and 'score' columns")
    column = {name: j for j, name in enumerate(header)}
    if len(column) < len(header):
        repeated = next(name for j, name in enumerate(header) if column[name] != j)
        raise DomainError(f"{path}: the header repeats column {repeated!r}")
    feature_cols = [j for j, name in enumerate(header) if name not in ("id", "score", "label")]
    return column["id"], column["score"], column.get("label"), feature_cols


def _label(text: str):
    return int(text) if text != "" else None


def _labels(labels: list):
    return np.array(labels) if labels and None not in labels else None


def _unparsable(path, line: int, header: list, row: list, label_col) -> DomainError:
    """DomainError naming the first field of ``row`` that ``float``, or
    ``int`` for the label, rejects; ``row`` holds one."""
    for j, name in enumerate(header):
        try:
            if j == label_col:
                _label(row[j])
            elif name != "id":
                float(row[j])
        except ValueError as exc:
            return DomainError(f"{path}, line {line}, column {name!r}: {exc}")
