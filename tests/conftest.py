from hypothesis import settings

# Every run draws the same examples, so a property test costs the same
# time on each run; each test keeps its own max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
