"""Setup shim.

All real metadata lives in pyproject.toml, and ``pip install -e .``
builds the package from it.  Offline with no ``wheel`` installed, no
pip install path works (PEP 517 needs ``bdist_wheel``, and pip 23.2
refuses ``--no-use-pep517`` without ``wheel``); run from the checkout
with ``PYTHONPATH=src`` instead, e.g. ``PYTHONPATH=src python -m repro
validate``.
"""

from setuptools import setup

setup()
