"""ECODOM passive-cooling toolkit: prescription compliance checks,
single-zone thermal/airflow simulation and psychrometric comfort
analysis for dwellings in humid tropical climates."""

__version__ = "0.1.0"
