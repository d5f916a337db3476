"""Sequential reference twins of vectorized kernels.

Each twin is the behavioral spec its optimized kernel is tested and
benchmarked against; it is never edited for performance.
"""
