"""Trace-driven cache-hierarchy simulator that detects program phases
online and swaps the detailed L1D model for cheap statistical
approximations per phase. Import each name from its module, such as
`swapsim.sim.run_simulation`."""

__version__ = "0.1.0"
