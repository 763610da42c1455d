"""The record contract: value classes, result records, pickling and report bytes.

The three value classes (AffineMap, StepDistribution, PadicExpansion) compare
and hash by value, only against their own class, and are read-only.  Every
record survives a pickle round trip, as the process pool needs, and the
report renderers' bytes are pinned.
"""

import hashlib
import pickle
from fractions import Fraction as F

import pytest

from affwalk import (
    AffineMap,
    PadicExpansion,
    StepDistribution,
    boundary_digits,
    divergence_statistic,
    drift_profile,
    extract_boundary,
    power,
    sample_path,
)
from affwalk.experiments import Report, Row, render_csv, render_json
from affwalk.measure import validate
from affwalk.padic import expand
from affwalk.walk import _encode


def _law():
    return StepDistribution({AffineMap(2, 0): F(3, 4), AffineMap(F(1, 2), 1): F(1, 4)})


def _report(rows=None, **extra) -> Report:
    if rows is None:
        rows = [Row("demo", "2", 10, 123, "stat", 0.5), Row("demo", "", 20, 124, "stat", 0.1 + 0.2)]
    return Report(
        "demo",
        {"measure": {"atoms": [["a=1/2;b=1", "1/4"]]}, "seed": 7},
        rows,
        {"mean": -1.25, "count": 2},
        **extra,
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


VALUES = [
    (lambda: AffineMap(F(1, 2), 3), lambda: AffineMap(F(2, 4), F(6, 2)), "a"),
    (_law, _law, "atoms"),
    (lambda: expand(F(7, 12), 2, 5), lambda: PadicExpansion(2, -2, (1, 0, 1, 1, 0)), "digits"),
]


@pytest.mark.parametrize(
    "make, make_again, field", VALUES, ids=["AffineMap", "StepDistribution", "PadicExpansion"]
)
class TestValueClasses:
    def test_equal_values_hash_equal(self, make, make_again, field):
        x, y = make(), make_again()
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_other_class_is_unequal(self, make, make_again, field):
        x = make()
        fields = getattr(x, field)
        assert x != fields and fields != x
        assert x != (fields,)
        assert x.__eq__(object()) is NotImplemented

    def test_fields_are_read_only(self, make, make_again, field):
        x = make()
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert getattr(x, field) == before

    def test_pickle_round_trip(self, make, make_again, field):
        x = make()
        copy = pickle.loads(pickle.dumps(x))
        assert type(copy) is type(x)
        assert copy == x and hash(copy) == hash(x)


def test_value_classes_are_unequal_across_classes():
    assert AffineMap(2, 0) != PadicExpansion(2, 0, (0,))
    assert AffineMap(1, 0) != StepDistribution({AffineMap(1, 0): 1})


@pytest.mark.parametrize(
    "args, message",
    [
        ((4, 0, (1,)), "not a prime"),
        ((2, 0, ()), "at least one digit"),
        ((3, 0, (1, 3)), "digits out of range"),
        ((3, 0, (-1,)), "digits out of range"),
        ((2, 0, (0, 1)), "leading digit must be nonzero"),
        ((2, 1, (0, 0)), "leading digit must be nonzero"),
    ],
)
def test_padic_expansion_range_errors(args, message):
    with pytest.raises(ValueError, match=message):
        PadicExpansion(*args)


def test_encode_hits_its_cache_for_an_equal_law():
    _encode.cache_clear()
    first = _encode(_law())
    again = _encode(_law())
    assert again is first
    assert _encode.cache_info().hits == 1


def _records():
    mu = _law()
    bias = StepDistribution({AffineMap(2, 0): F(1, 4), AffineMap(F(1, 2), 1): F(3, 4)})
    return [
        Row("demo", "2", 10, 123, "stat", 0.5),
        _report(),
        validate(mu),
        validate(StepDistribution({AffineMap(2, 0): 1})),
        drift_profile(mu),
        power(mu, 3),
        sample_path(mu, 20, seed=4),
        extract_boundary(mu, 3, finite_targets={2: 8}),
        boundary_digits(mu, 2, 6, seed=3),
        divergence_statistic(bias, 2, n=30, samples=3, seed=1),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize(
    "extra, csv_sha, json_sha",
    [
        (
            {},
            "c7b094665a42fd1a3f7aaddd50c7e5b0f756bbcdc8ebb9f7ae3db18c3304ab76",
            "83d97a6bf53326c773d7b53ab6392f9866abd11ca263602c0d1b23712a5551f1",
        ),
        (
            {"passed": True, "notes": ["first note", "second, with comma"]},
            "2ffa03b841f939801883924bcde364ad83569f3171d8779ef466e3298546c1cd",
            "2234f5636cda280fcee9dddd6c481967264aba6dae38322a92b74386d84f97fe",
        ),
        (
            {"rows": []},
            "466a4de73c9f87977210df669e38dac9f5908dab641669420adb7826d6fbc18f",
            "0c51c69027bc6c758320f77522a124ed806aa8f2884a3fbb3e53005e6e190e47",
        ),
        (
            {
                "rows": [
                    Row("demo", "2", 10, 123, "stat", float("nan")),
                    Row("demo", "", 20, 124, "stat", float("-inf")),
                    Row("demo", "3", 30, 125, "stat", float("inf")),
                ]
            },
            "68665207e9d23b3cd7d6a1c68fe9a5f691e1787ec815a3396c29b8378198cc6d",
            "64bdcc7893246731e4fd77ddfea1c1cac616a01ea630a5af4a751520b50160a1",
        ),
    ],
    ids=["defaults", "notes-and-verdict", "empty-rows", "non-finite-values"],
)
def test_report_bytes_are_pinned(extra, csv_sha, json_sha):
    report = _report(**extra)
    assert _sha(render_csv(report)) == csv_sha
    assert _sha(render_json(report)) == json_sha

