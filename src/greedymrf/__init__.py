"""Structure learning for discrete Markov random fields by greedy
conditional-entropy descent, with exact Ising oracles, samplers, bound
calculators, and an experiment harness."""

__version__ = "0.1.0"
