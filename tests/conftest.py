import pytest

from compcorr import correlations


@pytest.fixture(scope="session")
def axis_tables():
    """A function of a two-qubit state returning its x, y and z same-axis
    outcome tables, recorded as `complementary_correlations` hands them to
    `outcome_mutual_information`, one (3, 2, 2) stack, and read off it in
    order. Session-scoped, so hypothesis tests can use it too."""

    def tables(rho):
        seen = []
        original = correlations.outcome_mutual_information

        def recording(stack):
            seen.extend(stack)
            return original(stack)

        correlations.outcome_mutual_information = recording
        try:
            correlations.complementary_correlations(rho)
        finally:
            correlations.outcome_mutual_information = original
        return seen

    return tables
