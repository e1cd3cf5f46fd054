"""ECODOM passive-cooling toolkit: prescription compliance checks,
single-zone thermal/airflow simulation and psychrometric comfort
analysis for dwellings in humid tropical climates.

Every record (a building part, a zone model, a finding, a simulation
result, the comfort statistics) is an immutable named tuple: it
iterates, orders and compares equal to a plain tuple of its values, and
a changed copy is made with ``_replace``.  A series of samples (weather,
logger or psychrometric) is held as columns, one ``array('d')`` per
value, never as one object per row: the logger and psychrometric series
are named tuples of columns, and ``WeatherSeries`` is a small slotted
class, which holds the simulation's memo of its sun track and so
compares by identity.
"""

__version__ = "0.1.0"
