import warnings

import hypothesis

# When a @given test fails, hypothesis's pytest plugin imports this module
# (libcst), whose import emits a DeprecationWarning from mypy_extensions.
# The suite turns DeprecationWarning into an error, so that import would
# stop the whole run with INTERNALERROR; importing it here, with the
# warning ignored, keeps a failing property test an ordinary failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:         # no libcst: hypothesis writes no patch
        pass

hypothesis.settings.register_profile(
    "deterministic",
    hypothesis.settings(
        deadline=None,
        derandomize=True,
        max_examples=25,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    ),
)
hypothesis.settings.load_profile("deterministic")
