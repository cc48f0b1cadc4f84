"""The solver against the exact oracle on Hypothesis-drawn games up to 12x12.

A solved game must pass :func:`oracle_check`: the same value center, and
both strategies guaranteeing it.  Its value center must also equal the
simplex's value, which :func:`oracle_check` does not compute when the
strategies prove the value center.  Every game, solved or not, must keep its
oracle value after each deletion of its trace, replayed with ``submatrix``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fuzzygame import (
    Attitude,
    Axis,
    CenterGame,
    NotReducibleError,
    PayoffMatrix,
    PipelineConfig,
    SpreadConvention,
    beta_grid,
    oracle_check,
    oracle_value,
    solve_pipeline,
    submatrix,
)

# Narrow ranges make ties, and so deletions, common.
CENTERS = (
    st.integers(-5, 5),
    st.integers(-50, 50).map(lambda k: k / 10),  # binary floats with large denominators
    st.floats(-5, 5, allow_nan=False),
)
SPREADS = (st.just(0), st.sampled_from((0, 0.1, 0.25, 0.5)))  # crisp, fuzzy
GRIDS = (beta_grid(21), beta_grid(3), (0.75, 0.35, 1, 0.25, 0.6, 0, 0.9, 0.1, 0.5))


@st.composite
def games(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    center, spread = draw(st.sampled_from(CENTERS)), draw(st.sampled_from(SPREADS))
    return PayoffMatrix.of([[(draw(center), draw(spread)) for _ in range(n)] for _ in range(m)])


configs = st.builds(
    PipelineConfig,
    threshold=st.sampled_from((0.0, 0.5)),
    betas=st.sampled_from(GRIDS),
    attitude=st.sampled_from(Attitude),
    convention=st.sampled_from(SpreadConvention),
)


def _value(pm):
    return oracle_value(CenterGame.from_payoff(pm)).value


@settings(max_examples=250, deadline=None, derandomize=True)
@given(games(), configs)
def test_solution_and_every_deletion_agree_with_oracle(pm, config):
    value = _value(pm)
    try:
        solution = solve_pipeline(pm, config)
    except NotReducibleError as exc:
        trace = exc.trace
    else:
        assert oracle_check(pm, solution).passed
        # oracle_check proves this value without the simplex; the simplex referees here.
        assert Fraction(solution.value.center) == value
        trace = solution.trace
    kept = {Axis.ROW: set(range(pm.rows)), Axis.COL: set(range(pm.cols))}
    for step in trace:
        if step.deleted is not None:
            kept[step.deleted.axis].remove(step.deleted.index)
            rest = submatrix(pm, sorted(kept[Axis.ROW]), sorted(kept[Axis.COL]))
            assert _value(rest) == value, step
