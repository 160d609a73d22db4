from hypothesis import Phase, settings


def test_ci_profile_is_registered_and_skips_shrinking(pytestconfig):
    # hypothesis ignores a --hypothesis-profile name that no loaded conftest
    # registers, so the CI steps' ``ci`` profile is checked here: it exists,
    # and when it is chosen, the active settings skip shrinking.
    assert Phase.shrink not in settings.get_profile("ci").phases
    if pytestconfig.getoption("hypothesis_profile") == "ci":
        assert Phase.shrink not in settings.default.phases
