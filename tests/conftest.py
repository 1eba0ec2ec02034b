from hypothesis import settings

# Property tests draw a fixed, seed-independent set of examples, so the suite
# gives the same verdict on every run; there is no example database to keep,
# and no per-example deadline on a shared, drifting host.
settings.register_profile("gravclock", derandomize=True, database=None, deadline=None)
settings.load_profile("gravclock")
