"""Certified bounds and exact extremal computations for additive bases of order 2."""
