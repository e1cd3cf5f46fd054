"""ECODOM passive-cooling toolkit: prescription compliance checks,
single-zone thermal/airflow simulation and psychrometric comfort
analysis for dwellings in humid tropical climates.

Every record (a building part, a zone model, a finding, a weather or
logger sample) is an immutable named tuple: it iterates, orders and
compares equal to a plain tuple of its values, and a changed copy is
made with ``_replace``.  Four are small slotted classes instead:
``WeatherSeries``, ``SimulationResult`` and ``ComfortStats``, whose
length or equality means something else, and ``SolarPosition``, whose
fields the simulation reads at every step.
"""

__version__ = "0.1.0"
