from hypothesis import settings

# `pytest --hypothesis-profile=ci` runs a fixed example sequence and prints
# the reproduction blob of every failure; local runs keep the default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)
