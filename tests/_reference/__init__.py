"""Sequential reference twins of vectorized kernels.

Each twin is the behavioral spec its optimized kernel is tested against;
it is never edited for performance.  None of them ship in ``src/``.
"""
