"""ECODOM passive-cooling toolkit: prescription compliance checks,
single-zone thermal/airflow simulation and psychrometric comfort
analysis for dwellings in humid tropical climates.

Every record (a building part, a zone model, a finding, a weather or
logger sample, a simulation result, the comfort statistics) is an
immutable named tuple: it iterates, orders and compares equal to a plain
tuple of its values, and a changed copy is made with ``_replace``.  One
is a small slotted class instead: ``WeatherSeries``, which holds the
simulation's memo of its sun track and so compares by identity.
"""

__version__ = "0.1.0"
