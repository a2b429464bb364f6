"""The settings of the six config classes: every field refuses a value of the wrong type or out of its range."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from churnopt._settings import config_key
from churnopt.campaign import CampaignParams
from churnopt.experiments import RunConfig, SyntheticSpec
from churnopt.models import CartConfig, TrainConfig
from churnopt.smote import SmoteConfig

CLASSES = (CampaignParams, TrainConfig, CartConfig, SmoteConfig, SyntheticSpec, RunConfig)
# what each class needs besides the field under test
REQUIRED = {CampaignParams: dict(f=1.36, d=4.25, gamma=0.3), SyntheticSpec: dict(name="s", n_train=20, n_test=20)}
# RunConfig field -> the field of another class whose rules it takes
MIRRORS = {
    "f": (CampaignParams, "f"),
    "gamma": (CampaignParams, "gamma"),
    "slope": (CampaignParams, "slope"),
    "learning_rate": (TrainConfig, "learning_rate"),
    "epochs": (TrainConfig, "epochs"),
    "batch_size": (TrainConfig, "batch_size"),
    "cv_learning_rates": (TrainConfig, "learning_rate"),
    "cv_epochs": (TrainConfig, "epochs"),
    "smote_k": (SmoteConfig, "k_neighbors"),
    "smote_ratio": (SmoteConfig, "ratio"),
    "cart_max_depth": (CartConfig, "max_depth"),
    "cart_min_leaf": (CartConfig, "min_leaf"),
}


def build(cls, name, value):
    """cls with field name set to value; a cv list goes in as its one entry, next to a valid other list."""
    if cls is RunConfig and name in ("cv_learning_rates", "cv_epochs"):
        return RunConfig(**{"cv_learning_rates": (0.01,), "cv_epochs": (5,), name: (value,)})
    return cls(**REQUIRED.get(cls, {}) | {name: value})


def _entry_kind(fld) -> str:
    kind = fld.type.removesuffix(" | None")
    return kind[len("tuple["):-len(", ...]")] if kind.startswith("tuple[") else kind


def _outside(fld) -> list:
    """The first values past each bound: the bound itself when strict, one step (or ulp) past it when not."""
    rules = fld.metadata
    if not any(rule in rules for rule in ("ge", "gt", "le", "lt")):
        return []
    step = {"int": lambda v, to: v + (1 if to > v else -1), "float": np.nextafter}[_entry_kind(fld)]
    values = [step(rules["ge"], -math.inf)] if "ge" in rules else [rules["gt"]] if "gt" in rules else []
    return values + ([step(rules["le"], math.inf)] if "le" in rules else [rules["lt"]] if "lt" in rules else [])


def _bad_values(fld) -> list:
    """A bool, a string, NaN, inf, a non-integral number and the first values outside the range, where each is bad."""
    kind = _entry_kind(fld)
    bad = {"int": [True, "1", math.nan, math.inf, 2.5], "float": [True, "1", math.nan, math.inf, 10**400],
           "str": [True, 1, math.nan, math.inf], "bool": ["true", 1, math.nan, math.inf]}.get(kind, [])
    if "one_of" in fld.metadata:
        bad.append("none of these")
    if fld.type.startswith("tuple["):
        return ["x"] + [(v,) for v in bad + _outside(fld)]
    return bad + _outside(fld)


CASES = [
    pytest.param(cls, fld, value, id=f"{cls.__name__}.{fld.name}={value!r}")
    for cls in CLASSES
    for fld in fields(cls)
    for value in _bad_values(fld)
]


def assert_names_only(exc: ValueError, cls, fld) -> None:
    """The message is "<key> must ...", and names no other field of cls."""
    head, sep, tail = str(exc).partition(" must ")
    assert (head, sep) == (config_key(fld), " must "), str(exc)
    others = {config_key(other) for other in fields(cls)} - {head}
    assert not [key for key in others if re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", tail)], str(exc)


@pytest.mark.parametrize("cls, fld, value", CASES)
def test_every_field_refuses_a_bad_value_naming_it(cls, fld, value):
    with pytest.raises(ValueError) as got:
        cls(**REQUIRED.get(cls, {}) | {fld.name: value})
    assert_names_only(got.value, cls, fld)


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (TrainConfig, dict(learning_rate=math.inf), "learning_rate must be a finite number, got inf"),
        (TrainConfig, dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (TrainConfig, dict(epochs=True), "epochs must be an integer, got True"),
        (TrainConfig, dict(batch_size=1.5), "batch_size must be an integer, got 1.5"),
        (CampaignParams, dict(f=1.36, d=4.25, gamma=True), "gamma must be a finite number, got True"),
        (CampaignParams, dict(f="1", d=4.25, gamma=0.3), "f must be a finite number, got '1'"),
        (CartConfig, dict(max_depth=2.5), "max_depth must be an integer, got 2.5"),
        (CartConfig, dict(min_leaf=True), "min_leaf must be an integer, got True"),
        (SmoteConfig, dict(k_neighbors=2.5), "k_neighbors must be an integer, got 2.5"),
        (SmoteConfig, dict(seed=-1), "seed must be >= 0, got -1"),
        (SyntheticSpec, dict(name="s", n_train=20, n_test=9), "n_test must be >= 10, got 9"),
        (SyntheticSpec, dict(name="s", n_train=20, n_test=20, signal=-1.0), "signal must be >= 0, got -1.0"),
        (SyntheticSpec, dict(name="s", n_train=20, n_test=20, churn_rate=1.0), "churn_rate must lie in (0, 1), got 1.0"),
        (SyntheticSpec, dict(name="s", n_train=20, n_test=20, clv_churn_corr=-2),
         "clv_churn_corr must lie in [-1, 1], got -2"),
        (TrainConfig, dict(loss="hinge"), "loss must be one of ('smooth-regret', 'cross-entropy'), got 'hinge'"),
    ],
)
def test_message_per_rule(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


# numbers of every kind the settings take, with values on and near the bounds
PROBES = [None, True, False, "1", math.nan, math.inf, -math.inf, 10**400, -1, -0.5, -5e-324, 0, 0.0, 5e-324, 0.5, 1,
          1.0, 1.5, 2, 2.5, 10, np.int64(3), np.float64(0.25), np.nextafter(1.0, 2.0)]


@pytest.mark.parametrize("name", MIRRORS)
def test_mirrored_field_refuses_what_its_owner_refuses(name):
    owner, owner_name = MIRRORS[name]

    def refuses(cls, field_name, value):
        try:
            build(cls, field_name, value)
        except ValueError:
            return True
        return False

    assert [refuses(RunConfig, name, v) for v in PROBES] == [refuses(owner, owner_name, v) for v in PROBES]


@pytest.mark.parametrize("cls", CLASSES)
def test_defaults_and_values_on_or_just_inside_the_bounds_are_accepted(cls):
    cls(**REQUIRED.get(cls, {}))
    for fld in fields(cls):
        rules = fld.metadata
        inside = [rules[rule] for rule in ("ge", "le") if rule in rules]
        inside += [np.nextafter(rules[rule], to) for rule, to in (("gt", math.inf), ("lt", -math.inf)) if rule in rules]
        for value in inside:
            build(cls, fld.name, value)
