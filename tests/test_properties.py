"""Property tests on random classes, not just basis cells: the linear maps
(the Riemann-Roch lift, pushforward and pullback) all go through one shared
matrix step, so they must act linearly on any input."""
from hypothesis import given, settings
from hypothesis import strategies as st

from chowops import ModPClass, k0_from_chow_lift, make_class, variety_from_spec
from chowops.verify import standard_morphisms

VARIETIES = [variety_from_spec(name) for name in ("P^4", "Q_5", "P^1xP^2")]
MORPHISMS = standard_morphisms()

coefficients = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


def integral_class(draw, X):
    return make_class(X, draw(st.dictionaries(st.sampled_from(X.labels()),
                                              coefficients)))


@st.composite
def classes(draw):
    X = draw(st.sampled_from(VARIETIES))
    return integral_class(draw, X)


@st.composite
def morphism_and_classes(draw):
    f = draw(st.sampled_from(MORPHISMS))
    direction = draw(st.sampled_from(["push", "pull"]))
    X = f.source if direction == "push" else f.target
    x, y = integral_class(draw, X), integral_class(draw, X)
    p = draw(st.sampled_from([None, 2, 3, 5]))
    if p is not None:
        x, y = ModPClass.from_integral(x, p), ModPClass.from_integral(y, p)
    return f, direction, x, y


@settings(max_examples=60, deadline=None)
@given(classes())
def test_lift_is_the_sum_of_scaled_tau_columns(x):
    X = x.variety
    expected = X.zero()
    for label, v in x.coeffs.items():
        expected = expected + X.tau_class(label).scale(v)
    lift = k0_from_chow_lift(x)
    assert lift.integral
    assert lift.tau == expected


@settings(max_examples=80, deadline=None)
@given(morphism_and_classes())
def test_push_and_pull_are_additive(case):
    f, direction, x, y = case
    apply = f.push_class if direction == "push" else f.pull_class
    assert apply(x + y) == apply(x) + apply(y)
